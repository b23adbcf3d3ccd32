//! Differential oracle for incremental re-anonymization under live updates.
//!
//! A [`LiveTable`] absorbs seeded random delta sequences — interleaved
//! appends and deletes, exact duplicate rows, QI-group births and deaths,
//! p/k boundary crossings — while a per-model [`VerdictStore`] is pruned by
//! the invalidation classifier after every batch. After *each* delta, for
//! every privacy model and thread count, the incremental path (maintained
//! statistics + surviving cached verdicts) must reproduce the from-scratch
//! recompute byte for byte:
//!
//! - the maintained [`ConfidentialStats`] equal
//!   [`ConfidentialStats::compute`] on the materialized table;
//! - every cached verdict that survives invalidation equals a fresh kernel
//!   [`NodeCheck`] at its node — field for field, not just `satisfied`;
//! - the search over the updated table with the pruned cache returns the
//!   same winning node, proven height bound, suppression count, and masked
//!   microdata as an uncached, stats-from-scratch search, at 1 and 8
//!   threads.
//!
//! The long deterministic sequence additionally pins the acceptance
//! counter: at least one batch must *keep* cached verdicts (net-zero churn
//! or a sterile append), or the whole incremental layer silently degrades
//! to drop-everything.

use proptest::prelude::*;
use psens::algorithms::{pk_minimal_generalization, SearchOutcome, SearchRequest, Tuning};
use psens::core::evaluator::EvalContext;
use psens::core::{invalidation_for, LiveTable, ModelSpec, NoopObserver, VerdictStore};
use psens::prelude::*;
use psens_testkit::deltas::{delta_script, DeltaRng};
use psens_testkit::spaces::search_qi_space;
use psens_testkit::tables::{arb_wide_row, build_wide_table, WideRow};

/// Every model family: distinct-count (monotone, conditions-prunable),
/// entropy (histogram), and distribution-distance (histogram, non-monotone).
const MODELS: [ModelSpec; 4] = [
    ModelSpec::PSensitiveK { p: 2 },
    ModelSpec::DistinctL { l: 2 },
    ModelSpec::EntropyL { l: 2 },
    ModelSpec::TCloseness { t_ppm: 250_000 },
];

const THREADS: [usize; 2] = [1, 8];

/// A fresh row in the wide schema, with every value inside the search QI
/// space's domain (Y is restricted to the flat hierarchy's two leaves) and
/// occasional missing maskable cells.
fn fresh_wide_row(rng: &mut DeltaRng) -> Vec<Value> {
    let x = if rng.below(7) == 0 {
        Value::Missing
    } else {
        Value::Text(format!("x{}", rng.below(4)))
    };
    let a = if rng.below(7) == 0 {
        Value::Missing
    } else {
        Value::Int(rng.below(6) as i64)
    };
    let s = if rng.below(7) == 0 {
        Value::Missing
    } else {
        Value::Text(format!("s{}", rng.below(4)))
    };
    vec![
        Value::Text(format!("id-live-{}", rng.below(100_000))),
        x,
        a,
        Value::Text(format!("y{}", rng.below(2))),
        s,
        Value::Int(rng.below(3) as i64),
    ]
}

/// One uncached, stats-from-scratch search: the ground truth.
fn scratch_search(
    table: &Table,
    qi: &QiSpace,
    spec: ModelSpec,
    k: u32,
    ts: usize,
) -> SearchOutcome {
    pk_minimal_generalization(table, qi, &SearchRequest::new(spec, k, ts), &NoopObserver)
        .expect("scratch search")
}

/// Sums of the per-store invalidation counters across a whole run.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    kept: u64,
    invalidated: u64,
}

/// Drives `n_deltas` seeded batches through a [`LiveTable`] and per-model
/// verdict stores, asserting the incremental path against the scratch path
/// after every batch. Returns the summed invalidation counters.
fn assert_incremental_matches_scratch(
    base: &Table,
    n_deltas: usize,
    seed: u64,
    k: u32,
    ts: usize,
) -> Result<Counters, TestCaseError> {
    let qi = search_qi_space();
    let keys = base.schema().key_indices();
    let confs = base.schema().confidential_indices();
    let mut live = LiveTable::new(base.clone(), keys, confs.clone()).expect("valid columns");

    // One warm store per model, seeded by a baseline search so the very
    // first delta already has verdicts to keep or drop.
    let mut stores: Vec<(ModelSpec, VerdictStore)> = MODELS
        .iter()
        .map(|&spec| {
            let store = VerdictStore::new(&qi.lattice(), ts);
            let baseline = pk_minimal_generalization(
                base,
                &qi,
                &SearchRequest {
                    tuning: Tuning {
                        threads: 1,
                        cache: Some(&store),
                        ..Tuning::default()
                    },
                    ..SearchRequest::new(spec, k, ts)
                },
                &NoopObserver,
            )
            .expect("baseline search");
            let truth = scratch_search(base, &qi, spec, k, ts);
            assert_eq!(baseline.node, truth.node, "baseline winner {spec:?}");
            (spec, store)
        })
        .collect();

    let mut totals = Counters::default();
    for (step_ix, step) in delta_script(base, n_deltas, seed, fresh_wide_row)
        .iter()
        .enumerate()
    {
        let effect = live.apply(&step.batch).expect("generated batch applies");
        prop_assert_eq!(
            live.table(),
            &step.after,
            "materialized table, step {}",
            step_ix
        );

        // Incrementally maintained statistics == from-scratch recompute.
        let stats = live.stats();
        prop_assert_eq!(
            &stats,
            &ConfidentialStats::compute(live.table(), &confs),
            "stats, step {}",
            step_ix
        );

        for (spec, store) in &mut stores {
            let (successor, outcome) =
                store.invalidated_successor(invalidation_for(&effect, &stats, spec, k as usize));
            *store = successor;
            totals.kept += outcome.kept;
            totals.invalidated += outcome.invalidated;

            // Every surviving exact verdict must equal a fresh kernel check
            // on the *new* table — the soundness claim of DESIGN.md §17,
            // asserted field by field.
            let kept_exact = store.export_exact();
            if !kept_exact.is_empty() {
                let ctx = MaskingContext {
                    initial: live.table(),
                    qi: &qi,
                    k,
                    p: 1,
                    ts,
                };
                let ectx = EvalContext::build(&ctx)
                    .expect("context builds")
                    .with_model(*spec);
                let mut eval = ectx.evaluator();
                for cached in kept_exact {
                    let fresh = eval.check(&cached.node, &stats).expect("kernel check");
                    prop_assert_eq!(
                        &cached,
                        &fresh,
                        "kept verdict vs fresh kernel, step {} model {:?}",
                        step_ix,
                        spec
                    );
                }
            }

            // The searches: cached + maintained stats vs scratch, at every
            // thread count.
            let truth = scratch_search(live.table(), &qi, *spec, k, ts);
            for threads in THREADS {
                let incremental = pk_minimal_generalization(
                    live.table(),
                    &qi,
                    &SearchRequest {
                        tuning: Tuning {
                            threads,
                            cache: Some(&*store),
                            ..Tuning::default()
                        },
                        stats: Some(&stats),
                        ..SearchRequest::new(*spec, k, ts)
                    },
                    &NoopObserver,
                )
                .expect("incremental search");
                let setting = format!("step {step_ix} model {spec:?} threads {threads}");
                prop_assert_eq!(&incremental.node, &truth.node, "winner: {}", &setting);
                prop_assert_eq!(
                    incremental.proven_min_height,
                    truth.proven_min_height,
                    "proven height: {}",
                    &setting
                );
                prop_assert_eq!(
                    incremental.suppressed,
                    truth.suppressed,
                    "suppressed: {}",
                    &setting
                );
                prop_assert_eq!(&incremental.masked, &truth.masked, "masked: {}", &setting);
            }
        }
    }
    Ok(totals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized tables, thresholds, and delta scripts: the incremental
    /// path must track the scratch path through every batch.
    #[test]
    fn incremental_matches_scratch_recompute(
        rows in prop::collection::vec(arb_wide_row(2), 5..25),
        seed in 1u64..1_000_000,
        n_deltas in 5usize..12,
        k in 1u32..4,
        ts in 0usize..4,
    ) {
        let base = build_wide_table(&rows);
        assert_incremental_matches_scratch(&base, n_deltas, seed, k, ts)?;
    }
}

/// The acceptance sequence: 120 deltas over a deterministic base, at the
/// paper's default (p=2, k=2)-style thresholds. Beyond byte-identity, the
/// incremental layer must actually *keep* verdicts somewhere along the
/// sequence — otherwise the classifier has degraded to drop-everything and
/// the whole machinery is dead weight.
#[test]
fn long_sequence_converges_and_keeps_verdicts() {
    let rows: Vec<WideRow> = (0..24)
        .map(|i| {
            (
                i % 4,
                false,
                i % 6,
                i % 5 == 0,
                i % 2,
                i % 4,
                i % 7 == 0,
                (i % 3) as i64,
            )
        })
        .collect();
    let base = build_wide_table(&rows);
    let totals = assert_incremental_matches_scratch(&base, 120, 0xDE17A, 2, 3).unwrap();
    assert!(
        totals.kept > 0,
        "no batch kept any cached verdict across 120 deltas: {totals:?}"
    );
    assert!(
        totals.invalidated > 0,
        "no batch invalidated anything across 120 deltas: {totals:?}"
    );
}

/// Group deaths and rebirths: deleting every row of a QI group and later
/// re-appending rows with the same key must leave the incremental stats
/// and search results byte-identical to scratch (first-appearance order is
/// deliberately *not* part of the contract — only counts are).
#[test]
fn group_death_and_rebirth_stay_equivalent() {
    let rows: Vec<WideRow> = (0..12)
        .map(|i| (i % 2, false, i % 3, false, i % 2, i % 4, false, 0i64))
        .collect();
    let base = build_wide_table(&rows);
    // Seed 7 exercises delete-heavy prefixes on this base (delete-only
    // batches fire as soon as the table has > 4 rows).
    let totals = assert_incremental_matches_scratch(&base, 60, 7, 2, 2).unwrap();
    assert!(totals.kept + totals.invalidated > 0);
}

/// k/p boundary crossings: with k just above the typical group size, small
/// batches repeatedly flip nodes between satisfiable and not.
#[test]
fn boundary_crossing_thresholds_stay_equivalent() {
    let rows: Vec<WideRow> = (0..10)
        .map(|i| (i % 4, false, i % 2, false, i % 2, i % 2, false, 1i64))
        .collect();
    let base = build_wide_table(&rows);
    assert_incremental_matches_scratch(&base, 40, 99, 3, 1).unwrap();
}
