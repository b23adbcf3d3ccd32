//! Records the incremental re-anonymization throughput under live updates
//! (DESIGN.md §17): per delta batch, the incremental path (maintained
//! [`LiveTable`] statistics + selectively invalidated [`VerdictStore`] +
//! cached search) versus the pre-PR-10 baseline of applying the batch and
//! re-anonymizing from scratch.
//!
//! Run with:
//! `cargo run --release -p psens-bench --bin delta_throughput -- --out BENCH_10.json`
//!
//! Honesty rules:
//!
//! - every step *asserts* the two paths return the same winning node and
//!   suppression count before its timing is recorded — a fast-but-wrong
//!   incremental layer turns the whole run red, not into a good number;
//! - the delta mix is the oracle's own generator (`psens_testkit::deltas`),
//!   seeded, with duplicate appends, deletes, net-zero churn, and fresh
//!   rows — not an append-only stream cherry-picked to keep every verdict;
//! - both paths run at one thread; `host_parallelism` is recorded so these
//!   figures are not compared across hosts (thread scaling is BENCH_6's
//!   story, not this one's);
//! - the kept/invalidated counters are published, so a classifier that
//!   silently degrades to drop-everything is visible in the artifact.
//!
//! Like `node_eval_baseline`, this is a plain binary with no dev-dependencies
//! and runs in the hermetic (offline) build.

use psens_algorithms::{pk_minimal_generalization, SearchRequest, Tuning};
use psens_core::{
    invalidation_for, Invalidation, LiveTable, ModelSpec, NoopObserver, VerdictStore,
};
use psens_datasets::{ScaleGenerator, Spec};
use psens_microdata::Table;
use psens_testkit::deltas::delta_script;
use std::time::Instant;

const SIZES: [usize; 2] = [2_000, 20_000];
const N_DELTAS: usize = 200;
const SEED: u64 = 10;
const MODEL: ModelSpec = ModelSpec::PSensitiveK { p: 2 };
const K: u32 = 3;
const TS: usize = 10;

struct SizeReport {
    n_rows_start: usize,
    n_rows_end: usize,
    incremental_secs: f64,
    scratch_secs: f64,
    /// Sum of table sizes over the steps — each step re-verifies the whole
    /// table, so `sum_rows / secs` is the sustained verification rate.
    sum_rows: u64,
    kept: u64,
    invalidated: u64,
}

fn bench_size(n: usize) -> SizeReport {
    let base = ScaleGenerator::new(SEED).generate(n);
    let qi = Spec::scale().qi_space().expect("scale hierarchies");
    let keys = base.schema().key_indices();
    let confs = base.schema().confidential_indices();
    let steps = delta_script(&base, N_DELTAS, SEED, |rng| {
        base.row(rng.below(n)).expect("index in range")
    });

    let mut live = LiveTable::new(base.clone(), keys, confs).expect("valid columns");
    let mut store = VerdictStore::new(&qi.lattice(), TS);
    // Warm the store with the baseline search, as the daemon's `watch`
    // registration does; the first delta already has verdicts to keep.
    pk_minimal_generalization(
        &base,
        &qi,
        &SearchRequest {
            tuning: Tuning {
                threads: 1,
                cache: Some(&store),
                ..Tuning::default()
            },
            ..SearchRequest::new(MODEL, K, TS)
        },
        &NoopObserver,
    )
    .expect("baseline search");

    let mut scratch_table: Table = base.clone();
    let (mut incremental_secs, mut scratch_secs) = (0.0f64, 0.0f64);
    let (mut sum_rows, mut kept, mut invalidated) = (0u64, 0u64, 0u64);
    for (step_ix, step) in steps.iter().enumerate() {
        let started = Instant::now();
        let effect = live.apply(&step.batch).expect("generated batch applies");
        let stats = live.stats();
        // As the daemon does: a net-zero batch keeps the store as it is.
        match invalidation_for(&effect, &stats, &MODEL, K as usize) {
            Invalidation::KeepAll => kept += store.len() as u64,
            policy => {
                let (successor, outcome) = store.invalidated_successor(policy);
                store = successor;
                kept += outcome.kept;
                invalidated += outcome.invalidated;
            }
        }
        let incremental = pk_minimal_generalization(
            live.table(),
            &qi,
            &SearchRequest {
                tuning: Tuning {
                    threads: 1,
                    cache: Some(&store),
                    ..Tuning::default()
                },
                stats: Some(&stats),
                ..SearchRequest::new(MODEL, K, TS)
            },
            &NoopObserver,
        )
        .expect("incremental search");
        incremental_secs += started.elapsed().as_secs_f64();

        let started = Instant::now();
        scratch_table = step.batch.apply(&scratch_table).expect("batch applies");
        let scratch = pk_minimal_generalization(
            &scratch_table,
            &qi,
            &SearchRequest::new(MODEL, K, TS),
            &NoopObserver,
        )
        .expect("scratch search");
        scratch_secs += started.elapsed().as_secs_f64();

        assert_eq!(
            incremental.node, scratch.node,
            "incremental/scratch winner divergence at step {step_ix}"
        );
        assert_eq!(
            incremental.suppressed, scratch.suppressed,
            "incremental/scratch suppression divergence at step {step_ix}"
        );
        sum_rows += live.table().n_rows() as u64;
    }

    SizeReport {
        n_rows_start: n,
        n_rows_end: live.table().n_rows(),
        incremental_secs,
        scratch_secs,
        sum_rows,
        kept,
        invalidated,
    }
}

fn render_json(reports: &[SizeReport], host_parallelism: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "  \"bench\": \"BENCH_10\",");
    let _ = writeln!(w, "  \"workload\": {{");
    let _ = writeln!(
        w,
        "    \"dataset\": \"scale (Adult-shaped, no identifier)\","
    );
    let _ = writeln!(w, "    \"generator\": \"psens_datasets::ScaleGenerator\",");
    let _ = writeln!(
        w,
        "    \"deltas\": \"psens_testkit::deltas::delta_script (duplicates, deletes, net-zero churn, fresh rows)\","
    );
    let _ = writeln!(w, "    \"model\": \"psens-k\",");
    let _ = writeln!(w, "    \"p\": 2,");
    let _ = writeln!(w, "    \"k\": {K},");
    let _ = writeln!(w, "    \"ts\": {TS},");
    let _ = writeln!(w, "    \"n_deltas\": {N_DELTAS},");
    let _ = writeln!(w, "    \"seed\": {SEED},");
    let _ = writeln!(w, "    \"threads\": 1");
    let _ = writeln!(w, "  }},");
    let _ = writeln!(w, "  \"delta_throughput\": [");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(w, "    {{");
        let _ = writeln!(w, "      \"n_rows_start\": {},", r.n_rows_start);
        let _ = writeln!(w, "      \"n_rows_end\": {},", r.n_rows_end);
        let _ = writeln!(w, "      \"host_parallelism\": {host_parallelism},");
        let _ = writeln!(w, "      \"incremental_secs\": {:.4},", r.incremental_secs);
        let _ = writeln!(w, "      \"scratch_secs\": {:.4},", r.scratch_secs);
        let _ = writeln!(
            w,
            "      \"deltas_per_sec_incremental\": {:.1},",
            N_DELTAS as f64 / r.incremental_secs
        );
        let _ = writeln!(
            w,
            "      \"deltas_per_sec_scratch\": {:.1},",
            N_DELTAS as f64 / r.scratch_secs
        );
        let _ = writeln!(
            w,
            "      \"rows_verified_per_sec_incremental\": {:.0},",
            r.sum_rows as f64 / r.incremental_secs
        );
        let _ = writeln!(
            w,
            "      \"rows_verified_per_sec_scratch\": {:.0},",
            r.sum_rows as f64 / r.scratch_secs
        );
        // A value below 1.00 is a regression and must print as such.
        let _ = writeln!(
            w,
            "      \"speedup_incremental_vs_scratch\": {:.2},",
            r.scratch_secs / r.incremental_secs
        );
        let _ = writeln!(w, "      \"verdicts_kept\": {},", r.kept);
        let _ = writeln!(w, "      \"verdicts_invalidated\": {},", r.invalidated);
        let _ = writeln!(
            w,
            "      \"kept_fraction\": {:.3}",
            r.kept as f64 / (r.kept + r.invalidated).max(1) as f64
        );
        let _ = write!(w, "    }}");
        let _ = writeln!(w, "{}", if i + 1 < reports.len() { "," } else { "" });
    }
    let _ = writeln!(w, "  ],");
    let _ = writeln!(w, "  \"host_parallelism\": {host_parallelism}");
    let _ = writeln!(w, "}}");
    out
}

/// Validated emission: with `--out`,
/// write + re-read + byte-compare + re-parse, and any failure is loud.
fn emit(text: &str, out_path: Option<&str>) -> Result<(), String> {
    match out_path {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            let back =
                std::fs::read_to_string(path).map_err(|e| format!("re-reading {path}: {e}"))?;
            if back != text {
                return Err(format!(
                    "{path}: content mismatch after write ({} bytes on disk, {} rendered)",
                    back.len(),
                    text.len()
                ));
            }
            psens_microdata::JsonValue::parse(&back)
                .map_err(|e| format!("{path}: emitted JSON does not parse: {e}"))?;
            eprintln!("wrote {path} ({} bytes, validated)", back.len());
            Ok(())
        }
        None => {
            use std::io::Write;
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|e| format!("writing BENCH JSON to stdout: {e}"))
        }
    }
}

fn out_arg(args: &[String]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            return Some(
                it.next()
                    .unwrap_or_else(|| {
                        eprintln!("error: --out requires a file path");
                        std::process::exit(1);
                    })
                    .clone(),
            );
        }
        if let Some(path) = a.strip_prefix("--out=") {
            return Some(path.to_string());
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = out_arg(&args);
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut reports = Vec::new();
    for &n in &SIZES {
        eprintln!("benching {n} rows x {N_DELTAS} deltas...");
        reports.push(bench_size(n));
    }
    let text = render_json(&reports, host_parallelism);
    if let Err(e) = emit(&text, out_path.as_deref()) {
        eprintln!("error: BENCH JSON emission failed: {e}");
        std::process::exit(1);
    }
}
