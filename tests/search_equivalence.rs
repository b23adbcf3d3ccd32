//! Differential-oracle equivalence of every lattice search, driven through
//! its single [`SearchRequest`] entry point, against its serial, uncached,
//! pruned counterpart.
//!
//! For proptest-generated tables, privacy models and (k, TS) thresholds,
//! every combination of `pruning ∈ {None, NecessaryConditions}`,
//! `threads ∈ {1, 2, 8}` and cache on/off must reproduce the oracle's
//! results node-for-node:
//!
//! - Samarati's binary search returns the same winning node and the same
//!   proven height bound;
//! - the level-wise search returns the same minimal set in the same order,
//!   with the same completed height;
//! - the exhaustive scan (serial at one thread, chunked otherwise) returns
//!   identical satisfying and minimal sets and per-node annotations — the
//!   strongest form of "cached verdicts equal uncached verdicts", since
//!   every `(node, violating_tuples)` pair is compared.
//!
//! Pruning may only change *where* a check settles: without it no fresh
//! check is rejected by Condition 1 or 2. One [`VerdictStore`] is shared
//! across all strategies, pruning modes and thread counts within a
//! configuration: replayed and inferred verdicts must never change any
//! result, only skip work. That includes configurations where TS lets a
//! node suppress every tuple: for p > 1 the kernel rejects the empty
//! release at the k-anonymity stage, so pruned and unpruned searches agree
//! on them too.

use proptest::prelude::*;
use psens::algorithms::{
    exhaustive_scan, levelwise_minimal, pk_minimal_generalization, Pruning, SearchRequest,
    SearchStats, Tuning,
};
use psens::core::{NoopObserver, SearchBudget, VerdictStore};
use psens::hierarchy::QiSpace;
use psens::prelude::*;
use psens_testkit::spaces::search_qi_space;
use psens_testkit::tables::{arb_wide_row, build_wide_table, WideRow};

/// The wide testkit schema: keys X and A (both in the QI space) plus flat
/// categorical Y, confidential S and T. Y's domain is restricted to the two
/// leaves of the flat Y hierarchy below.
fn arb_row() -> impl Strategy<Value = WideRow> {
    arb_wide_row(2)
}

fn build_table(rows: &[WideRow]) -> Table {
    build_wide_table(rows)
}

/// QI space over X (3 levels), A (2 levels), and flat Y (2 levels): a
/// 12-node lattice of height 4 — small enough for exhaustive oracles, big
/// enough that 8-thread chunking splits real strata.
fn test_qi_space() -> QiSpace {
    search_qi_space()
}

/// The stage partition must survive every request: cache hits and inferred
/// verdicts stay outside it, and without pruning no fresh check settles at
/// a necessary condition.
fn assert_partition_holds(
    stats: &SearchStats,
    pruning: Pruning,
    setting: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        stats.total_rejections() + stats.nodes_passed,
        stats.nodes_evaluated,
        "stage partition: {}",
        setting
    );
    if pruning == Pruning::None {
        prop_assert_eq!(
            stats.rejected_condition1 + stats.rejected_condition2,
            0,
            "unpruned condition rejections: {}",
            setting
        );
    }
    Ok(())
}

/// The model a sampled `(family, parameter)` pair stands for: psens-k,
/// distinct-l and entropy-l take the parameter as p or l, t-closeness as t
/// in tenths.
fn model_of(family: u8, param: u32) -> ModelSpec {
    match family {
        0 => ModelSpec::PSensitiveK { p: param },
        1 => ModelSpec::DistinctL { l: param },
        2 => ModelSpec::EntropyL { l: param },
        _ => ModelSpec::TCloseness {
            t_ppm: param * 100_000,
        },
    }
}

/// Runs every lattice search under every `(pruning, cache, threads)`
/// combination and compares each against its default-request oracle.
fn assert_searches_match_oracles(
    table: &Table,
    qi: &QiSpace,
    model: ModelSpec,
    k: u32,
    ts: usize,
) -> Result<(), TestCaseError> {
    let noop = NoopObserver;
    let oracle = SearchRequest::new(model, k, ts);
    let sam0 = pk_minimal_generalization(table, qi, &oracle, &noop).unwrap();
    let lw0 = levelwise_minimal(table, qi, &oracle, &noop).unwrap();
    let ex0 = exhaustive_scan(table, qi, &oracle, &noop).unwrap();

    let lattice = qi.lattice();
    let store = VerdictStore::new(&lattice, ts);
    for pruning in [Pruning::None, Pruning::NecessaryConditions] {
        for cache in [None, Some(&store)] {
            for threads in [1usize, 2, 8] {
                let req = SearchRequest {
                    pruning,
                    tuning: Tuning {
                        threads,
                        cache,
                        ..Tuning::default()
                    },
                    ..oracle.clone()
                };
                let setting = format!(
                    "{} k={k} ts={ts} pruning={pruning:?} threads={threads} cache={}",
                    model.describe(),
                    cache.is_some()
                );

                let sam = pk_minimal_generalization(table, qi, &req, &noop).unwrap();
                prop_assert_eq!(&sam.node, &sam0.node, "samarati node: {}", &setting);
                prop_assert_eq!(
                    sam.proven_min_height,
                    sam0.proven_min_height,
                    "samarati height bound: {}",
                    &setting
                );
                prop_assert_eq!(sam.suppressed, sam0.suppressed, "suppressed: {}", &setting);
                assert_partition_holds(&sam.stats, pruning, &setting)?;

                let lw = levelwise_minimal(table, qi, &req, &noop).unwrap();
                prop_assert_eq!(&lw.minimal, &lw0.minimal, "levelwise minimal: {}", &setting);
                prop_assert_eq!(
                    lw.completed_height,
                    lw0.completed_height,
                    "levelwise completed height: {}",
                    &setting
                );
                assert_partition_holds(&lw.stats, pruning, &setting)?;

                let ex = exhaustive_scan(table, qi, &req, &noop).unwrap();
                prop_assert_eq!(
                    &ex.annotations,
                    &ex0.annotations,
                    "exhaustive annotations: {}",
                    &setting
                );
                prop_assert_eq!(
                    &ex.satisfying,
                    &ex0.satisfying,
                    "exhaustive satisfying: {}",
                    &setting
                );
                prop_assert_eq!(
                    &ex.minimal,
                    &ex0.minimal,
                    "exhaustive minimal: {}",
                    &setting
                );
                assert_partition_holds(&ex.stats, pruning, &setting)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The main oracle: random tables, models and thresholds, all
    /// strategies, both pruning modes, all tunings, one shared store. The
    /// model family is drawn last, so a persisted seed still replays the
    /// table, k, parameter and TS it was saved with.
    #[test]
    fn tuned_searches_equal_serial_uncached_oracles(
        rows in prop::collection::vec(arb_row(), 1..40),
        k in 1u32..5,
        param in 1u32..4,
        ts in 0usize..6,
        family in 0u8..4,
    ) {
        let t = build_table(&rows);
        assert_searches_match_oracles(&t, &test_qi_space(), model_of(family, param), k, ts)?;
    }

    /// Degenerate thresholds: k beyond the table size (everything fails
    /// k-anonymity, exercising downward closure on every node) and TS large
    /// enough to suppress whole tables.
    #[test]
    fn tuned_searches_agree_under_extreme_thresholds(
        rows in prop::collection::vec(arb_row(), 1..16),
        p in 1u32..4,
    ) {
        let t = build_table(&rows);
        let k = t.n_rows() as u32 + 1;
        let ts = t.n_rows();
        let model = ModelSpec::PSensitiveK { p };
        assert_searches_match_oracles(&t, &test_qi_space(), model, k, ts)?;
        assert_searches_match_oracles(&t, &test_qi_space(), model, k, 0)?;
    }
}

/// Figure 3 at p = 4 (Illness has 3 distinct values) with TS = 10 = n:
/// no masking satisfies the request, although ⟨S0, Z0⟩ may suppress all ten
/// tuples. Samarati and the exhaustive scan agree on it with and without
/// the necessary-condition pruning; unpruned, the empty release is what
/// each of them has to reject.
#[test]
fn fully_suppressed_release_is_unsatisfiable_when_condition1_fails() {
    let im = psens::datasets::paper::figure3_microdata();
    let qi = psens::datasets::hierarchies::figure2_qi_space();
    let base = SearchRequest::new(ModelSpec::PSensitiveK { p: 4 }, 3, im.n_rows());
    for pruning in [Pruning::None, Pruning::NecessaryConditions] {
        let req = SearchRequest {
            pruning,
            ..base.clone()
        };
        let sam = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
        assert_eq!(sam.node, None, "samarati {pruning:?}");
        assert_eq!(sam.proven_min_height, qi.lattice().height() + 1);
        assert_eq!(
            sam.stats.aborted_condition1,
            pruning == Pruning::NecessaryConditions
        );
        let ex = exhaustive_scan(&im, &qi, &req, &NoopObserver).unwrap();
        assert!(
            ex.satisfying.is_empty() && ex.minimal.is_empty(),
            "exhaustive {pruning:?}"
        );
    }
    let lw = levelwise_minimal(&im, &qi, &base, &NoopObserver).unwrap();
    assert!(lw.minimal.is_empty());
}

/// A QI space holds key attributes only. Figure 3 with Illness, its
/// confidential attribute, added to the QI space is rejected by every
/// search with an error naming Illness — at p = 2, where Condition 1 holds,
/// and at p = 4 (Illness has 3 values), where Condition 1 alone would
/// settle the request as unsatisfiable before any node check.
#[test]
fn every_search_rejects_a_confidential_qi_attribute_at_any_p() {
    use psens::algorithms::{pram_minimal_masking, PramBackendConfig, PramBackendError};
    use psens::datasets::hierarchies::{figure1_sex, figure1_zipcode};
    use psens::hierarchy::Error;

    let im = psens::datasets::paper::figure3_microdata();
    let qi = QiSpace::new(vec![
        ("Sex".into(), figure1_sex()),
        ("ZipCode".into(), Hierarchy::Cat(figure1_zipcode())),
        (
            "Illness".into(),
            psens::hierarchy::builders::flat_hierarchy(vec!["Flu", "HIV", "Asthma"]).unwrap(),
        ),
    ])
    .unwrap();
    let names_illness = |err: Error, search: &str| match err {
        Error::Invalid(msg) => assert!(msg.contains("`Illness`"), "{search}: {msg}"),
        other => panic!("{search}: expected Error::Invalid, got {other:?}"),
    };
    for p in [2u32, 4] {
        let model = ModelSpec::PSensitiveK { p };
        let req = SearchRequest::new(model, 2, 0);
        let sam = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap_err();
        names_illness(sam, &format!("samarati p={p}"));
        let lw = levelwise_minimal(&im, &qi, &req, &NoopObserver).unwrap_err();
        names_illness(lw, &format!("levelwise p={p}"));
        for threads in [1usize, 2] {
            let req = SearchRequest {
                tuning: Tuning {
                    threads,
                    ..Tuning::default()
                },
                ..req.clone()
            };
            let ex = exhaustive_scan(&im, &qi, &req, &NoopObserver).unwrap_err();
            names_illness(ex, &format!("exhaustive p={p} threads={threads}"));
        }
        match pram_minimal_masking(&im, &qi, model, 2, 0, PramBackendConfig::default()) {
            Err(PramBackendError::Search(err)) => names_illness(err, &format!("pram p={p}")),
            other => panic!("pram p={p}: expected a search error, got {other:?}"),
        }
    }
}

/// A store fully warmed by one strategy answers a different strategy's whole
/// search: cross-strategy reuse is the cache's raison d'être on a
/// single-visit lattice search.
#[test]
fn a_levelwise_warmed_store_answers_the_whole_binary_search() {
    let im = psens::datasets::AdultGenerator::new(77).generate(250);
    let qi = psens::datasets::hierarchies::adult_qi_space();
    let (p, k, ts) = (2u32, 2u32, 15usize);
    let lattice = qi.lattice();
    let store = VerdictStore::new(&lattice, ts);
    let tuning = Tuning {
        threads: 1,
        cache: Some(&store),
        ..Tuning::default()
    };

    // A completed level-wise run records every node it evaluates, and each
    // recorded k-failure condemns its descendants. Rolled-up nodes get no
    // entry, but Samarati's probes on this configuration never need one.
    let lw = levelwise_minimal(
        &im,
        &qi,
        &SearchRequest {
            tuning,
            ..SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
        },
        &NoopObserver,
    )
    .unwrap();
    assert!(lw.stats.nodes_evaluated > 0);

    // Samarati then completes without a single fresh kernel check, even
    // under a zero-node budget.
    let zero = SearchRequest {
        budget: SearchBudget::unlimited().with_max_nodes(0),
        tuning,
        ..SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
    };
    let warm = pk_minimal_generalization(&im, &qi, &zero, &NoopObserver).unwrap();
    assert_eq!(warm.termination, psens::core::Termination::Completed);
    assert_eq!(warm.stats.nodes_evaluated, 0);
    assert!(warm.stats.cache_hits + warm.stats.cache_inferred > 0);

    // And its answer matches the cold serial oracle.
    let cold = pk_minimal_generalization(
        &im,
        &qi,
        &SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts),
        &NoopObserver,
    )
    .unwrap();
    assert_eq!(warm.node, cold.node);
    assert_eq!(warm.proven_min_height, cold.proven_min_height);
}
