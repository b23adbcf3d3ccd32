//! Records the node-evaluation baseline: lattice nodes per second through
//! the materializing pipeline and through the code-mapped kernel (serial and
//! parallel), on the synthetic Adult workload, plus the verdict-cache and
//! parallel-search figures on the wide 8-QI lattice.
//!
//! Run with:
//! `cargo run --release -p psens-bench --bin node_eval_baseline > BENCH_4.json`
//! (BENCH_1/BENCH_2 are earlier recordings of the same workload; BENCH_3
//! added the budgeted-kernel overhead pair; BENCH_4 adds the verdict-cache
//! overhead/speedup pairs and the thread-scaling pair, with the recording
//! host's `available_parallelism` stated so scaling numbers from 1-core CI
//! boxes are not mistaken for regressions.)

use psens_algorithms::{exhaustive_scan, pk_minimal_generalization, SearchRequest, Tuning};
use psens_bench::workloads;
use psens_core::evaluator::EvalContext;
use psens_core::masking::MaskingContext;
use psens_core::ModelSpec;
use psens_core::{NoopObserver, RecordingObserver, SearchBudget, VerdictStore};
use psens_datasets::hierarchies::{adult_qi_space, adult_wide_qi_space};
use std::hint::black_box;
use std::time::Instant;

const N_ROWS: usize = 10_000;
const K: u32 = 3;
const P: u32 = 2;
const TS: usize = 500;
const WIDE_ROWS: usize = 10_000;

/// Repeats `f` until at least `secs` seconds have elapsed (minimum 3
/// repetitions) and returns the rate in units of `per_rep / second`.
fn rate_for(per_rep: usize, secs: f64, mut f: impl FnMut()) -> f64 {
    // Warm-up.
    f();
    let mut reps = 0u32;
    let start = Instant::now();
    loop {
        f();
        reps += 1;
        if reps >= 3 && start.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
    (per_rep as f64 * f64::from(reps)) / start.elapsed().as_secs_f64()
}

/// Default ~0.5 s measurement window.
fn rate(per_rep: usize, f: impl FnMut()) -> f64 {
    rate_for(per_rep, 0.5, f)
}

fn main() {
    let qi = adult_qi_space();
    let table = workloads::adult(N_ROWS);
    let ctx = MaskingContext {
        initial: &table,
        qi: &qi,
        k: K,
        p: P,
        ts: TS,
    };
    let stats = ctx.initial_stats();
    let ectx = EvalContext::build(&ctx).expect("context builds");
    let mut eval = ectx.evaluator();
    let nodes = qi.lattice().all_nodes();
    let n_nodes = nodes.len();

    let materializing = rate(n_nodes, || {
        for node in &nodes {
            black_box(ctx.evaluate(node, &stats).expect("evaluate"));
        }
    });
    // The observed entry point with the no-op observer must monomorphize to
    // the plain kernel, so these two rates back the ≤2% overhead claim.
    // Clock-drift on shared machines biases whichever runs later, so the
    // pair is measured in alternating rounds and each side keeps its best.
    let mut code_mapped = 0.0f64;
    let mut code_mapped_noop = 0.0f64;
    for _ in 0..5 {
        code_mapped = code_mapped.max(rate_for(n_nodes, 0.4, || {
            for node in &nodes {
                black_box(eval.check(node, &stats).expect("check"));
            }
        }));
        code_mapped_noop = code_mapped_noop.max(rate_for(n_nodes, 0.4, || {
            for node in &nodes {
                black_box(
                    eval.check_observed(node, &stats, &NoopObserver)
                        .expect("check"),
                );
            }
        }));
    }
    // The budgeted entry point with an unlimited budget is the robustness
    // layer's overhead claim: one atomic increment plus a periodic poll per
    // node must stay within 2% of the bare kernel. Same alternating
    // best-of-rounds discipline as above.
    let unlimited = SearchBudget::unlimited();
    let mut code_mapped_bare = 0.0f64;
    let mut code_mapped_budgeted = 0.0f64;
    for _ in 0..5 {
        code_mapped_bare = code_mapped_bare.max(rate_for(n_nodes, 0.4, || {
            for node in &nodes {
                black_box(eval.check(node, &stats).expect("check"));
            }
        }));
        code_mapped_budgeted = code_mapped_budgeted.max(rate_for(n_nodes, 0.4, || {
            let state = unlimited.start();
            for node in &nodes {
                // `ControlFlow` is must_use; the measurement discards it.
                let _ = black_box(
                    eval.check_budgeted(node, &stats, &state, &NoopObserver)
                        .expect("check"),
                );
            }
        }));
    }
    // Verdict-cache overhead: the full serial scan with no store versus a
    // fresh (all-miss) store per repetition. Misses pay a shard lookup, a
    // record, and the monotonicity closure — the ≤2% claim from DESIGN.md
    // §11. Alternating best-of-rounds, as above.
    let lattice = qi.lattice();
    let scan_req = SearchRequest::new(ModelSpec::PSensitiveK { p: P }, K, TS);
    let mut scan_uncached = 0.0f64;
    let mut scan_cached_cold = 0.0f64;
    for _ in 0..5 {
        scan_uncached = scan_uncached.max(rate_for(n_nodes, 0.4, || {
            black_box(exhaustive_scan(&table, &qi, &scan_req, &NoopObserver).expect("scan"));
        }));
        scan_cached_cold = scan_cached_cold.max(rate_for(n_nodes, 0.4, || {
            let store = VerdictStore::new(&lattice, TS);
            let cached = SearchRequest {
                tuning: Tuning {
                    threads: 1,
                    cache: Some(&store),
                    ..Tuning::default()
                },
                ..scan_req.clone()
            };
            black_box(exhaustive_scan(&table, &qi, &cached, &NoopObserver).expect("scan"));
        }));
    }

    let recorder = RecordingObserver::new();
    let code_mapped_recording = rate(n_nodes, || {
        for node in &nodes {
            black_box(eval.check_observed(node, &stats, &recorder).expect("check"));
        }
    });
    let exhaustive_serial = rate(n_nodes, || {
        black_box(exhaustive_scan(&table, &qi, &scan_req, &NoopObserver).expect("scan"));
    });
    let threads = std::thread::available_parallelism().map_or(4, usize::from);
    let parallel_req = SearchRequest {
        tuning: Tuning {
            threads,
            ..Tuning::default()
        },
        ..scan_req.clone()
    };
    let exhaustive_parallel = rate(n_nodes, || {
        black_box(exhaustive_scan(&table, &qi, &parallel_req, &NoopObserver).expect("scan"));
    });

    // The wide 8-QI lattice (7,776 nodes): Samarati wall-clock uncached,
    // with a cold store, with a pre-warmed store, and with 8-way parallel
    // probing. `host_parallelism` is recorded because the thread-scaling
    // pair is only meaningful relative to the cores actually available.
    let wide_qi = adult_wide_qi_space();
    let wide = workloads::adult_wide(WIDE_ROWS);
    let wide_lattice = wide_qi.lattice();
    let wide_nodes = wide_lattice.node_count();
    let samarati = |tuning: Tuning<'_>| {
        let req = SearchRequest {
            tuning,
            ..scan_req.clone()
        };
        black_box(pk_minimal_generalization(&wide, &wide_qi, &req, &NoopObserver).expect("search"));
    };
    let secs_of = |rate: f64| 1.0 / rate;
    let wide_uncached = secs_of(rate(1, || samarati(Tuning::default())));
    let wide_cached_cold = secs_of(rate(1, || {
        let store = VerdictStore::new(&wide_lattice, TS);
        samarati(Tuning {
            threads: 1,
            cache: Some(&store),
            ..Tuning::default()
        });
    }));
    let warm_store = VerdictStore::new(&wide_lattice, TS);
    samarati(Tuning {
        threads: 1,
        cache: Some(&warm_store),
        ..Tuning::default()
    });
    let wide_cached_warm = secs_of(rate(1, || {
        samarati(Tuning {
            threads: 1,
            cache: Some(&warm_store),
            ..Tuning::default()
        });
    }));
    let wide_threads_1 = secs_of(rate(1, || {
        samarati(Tuning {
            threads: 1,
            cache: None,
            ..Tuning::default()
        });
    }));
    let wide_threads_8 = secs_of(rate(1, || {
        samarati(Tuning {
            threads: 8,
            cache: None,
            ..Tuning::default()
        });
    }));

    println!("{{");
    println!("  \"workload\": {{");
    println!("    \"dataset\": \"synthetic Adult\",");
    println!("    \"n_rows\": {N_ROWS},");
    println!("    \"lattice_nodes\": {n_nodes},");
    println!("    \"k\": {K},");
    println!("    \"p\": {P},");
    println!("    \"ts\": {TS}");
    println!("  }},");
    println!("  \"nodes_per_sec\": {{");
    println!("    \"materializing_serial\": {materializing:.1},");
    println!("    \"code_mapped_serial\": {code_mapped:.1},");
    println!("    \"code_mapped_serial_noop_observed\": {code_mapped_noop:.1},");
    println!("    \"code_mapped_serial_unlimited_budget\": {code_mapped_budgeted:.1},");
    println!("    \"code_mapped_serial_recording_observed\": {code_mapped_recording:.1},");
    println!("    \"exhaustive_serial\": {exhaustive_serial:.1},");
    println!("    \"exhaustive_parallel_{threads}_threads\": {exhaustive_parallel:.1}");
    println!("  }},");
    println!(
        "  \"speedup_code_mapped_vs_materializing\": {:.2},",
        code_mapped / materializing
    );
    println!(
        "  \"noop_observer_overhead_pct\": {:.2},",
        (code_mapped / code_mapped_noop - 1.0) * 100.0
    );
    println!(
        "  \"unlimited_budget_overhead_pct\": {:.2},",
        (code_mapped_bare / code_mapped_budgeted - 1.0) * 100.0
    );
    println!("  \"verdict_cache\": {{");
    println!("    \"exhaustive_nodes_per_sec_uncached\": {scan_uncached:.1},");
    println!("    \"exhaustive_nodes_per_sec_cached_cold\": {scan_cached_cold:.1},");
    println!(
        "    \"cold_cache_overhead_pct\": {:.2}",
        (scan_uncached / scan_cached_cold - 1.0) * 100.0
    );
    println!("  }},");
    println!("  \"wide_lattice\": {{");
    println!("    \"dataset\": \"synthetic Adult, 8 QI attributes\",");
    println!("    \"n_rows\": {WIDE_ROWS},");
    println!("    \"lattice_nodes\": {wide_nodes},");
    println!("    \"k\": {K},");
    println!("    \"p\": {P},");
    println!("    \"ts\": {TS},");
    println!("    \"samarati_secs_uncached\": {wide_uncached:.4},");
    println!("    \"samarati_secs_cached_cold\": {wide_cached_cold:.4},");
    println!("    \"samarati_secs_cached_warm\": {wide_cached_warm:.4},");
    println!(
        "    \"speedup_warm_cache_vs_uncached\": {:.2},",
        wide_uncached / wide_cached_warm
    );
    println!("    \"samarati_secs_threads_1\": {wide_threads_1:.4},");
    println!("    \"samarati_secs_threads_8\": {wide_threads_8:.4},");
    println!(
        "    \"parallel_speedup_8_vs_1\": {:.2},",
        wide_threads_1 / wide_threads_8
    );
    println!(
        "    \"host_parallelism\": {}",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!("  }}");
    println!("}}");
}
