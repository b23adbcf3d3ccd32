//! The observer layer end to end: telemetry recorded by a
//! [`RecordingObserver`] must agree with each search's own `SearchStats`,
//! events must arrive in Algorithm 2 stage order, and observing a search
//! (with a recording or a no-op observer) must never change its outcome.

use psens::algorithms::{
    exhaustive_scan, levelwise_minimal, mondrian_anonymize, pk_minimal_generalization,
    MondrianConfig, SearchRequest, Tuning,
};
use psens::core::observe::stage_index;
use psens::core::{CheckStage, ModelSpec, NoopObserver, RecordingObserver, SearchBudget};
use psens::datasets::hierarchies::figure2_qi_space;
use psens::datasets::paper::figure3_microdata;
use psens::datasets::AdultGenerator;

/// 2-sensitive 2-anonymity without suppression on the paper's Figure 3.
fn figure3_request() -> SearchRequest<'static> {
    SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 2, 0)
}

/// Per-stage telemetry must mirror the search's stage counters exactly: the
/// observer saw every node check settle in the stage the stats recorded.
#[test]
fn exhaustive_telemetry_mirrors_search_stats() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    let obs = RecordingObserver::new();
    let outcome = exhaustive_scan(&im, &qi, &figure3_request(), &obs).unwrap();
    let t = obs.telemetry();

    assert_eq!(t.nodes_checked() as usize, outcome.stats.nodes_evaluated);
    let by_stage = |stage: CheckStage| t.stages[stage_index(stage)].nodes as usize;
    assert_eq!(
        by_stage(CheckStage::Condition1),
        outcome.stats.rejected_condition1
    );
    assert_eq!(
        by_stage(CheckStage::Condition2),
        outcome.stats.rejected_condition2
    );
    assert_eq!(by_stage(CheckStage::KAnonymity), outcome.stats.rejected_k);
    assert_eq!(
        by_stage(CheckStage::DetailedScan),
        outcome.stats.rejected_detailed
    );
    assert_eq!(by_stage(CheckStage::Passed), outcome.stats.nodes_passed);
    // STAGES order is the Algorithm 2 check order, so the rendered stage
    // entries come out condition1 .. passed.
    assert_eq!(t.stages[0].stage, CheckStage::Condition1);
    assert_eq!(t.stages[4].stage, CheckStage::Passed);
    // Per-height counts cover the same node checks.
    let height_nodes: u64 = t.heights.iter().map(|h| h.nodes).sum();
    assert_eq!(height_nodes, t.nodes_checked());
}

/// Samarati's binary search enters heights in probe order; the observer must
/// see the same sequence the stats record, and the winner materialization
/// must be counted.
#[test]
fn samarati_telemetry_follows_probe_order() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    let obs = RecordingObserver::new();
    let outcome = pk_minimal_generalization(&im, &qi, &figure3_request(), &obs).unwrap();
    assert!(outcome.node.is_some());
    let t = obs.telemetry();
    assert_eq!(t.heights_entered, outcome.stats.heights_probed);
    assert_eq!(t.nodes_checked() as usize, outcome.stats.nodes_evaluated);
    // The winning node's masked table is materialized exactly once.
    assert_eq!(t.tables_materialized, 1);
}

/// The level-wise sweep visits heights bottom-up; `height_entered` events
/// must arrive in ascending order.
#[test]
fn levelwise_heights_are_entered_bottom_up() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    let obs = RecordingObserver::new();
    let outcome = levelwise_minimal(&im, &qi, &figure3_request(), &obs).unwrap();
    let t = obs.telemetry();
    assert!(!t.heights_entered.is_empty());
    assert!(t.heights_entered.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(t.heights_entered, outcome.stats.heights_probed);
    assert_eq!(t.nodes_checked() as usize, outcome.stats.nodes_evaluated);
}

/// One recording observer shared by all workers of a parallel scan sees
/// every node check exactly once.
#[test]
fn parallel_scan_shares_one_observer_across_workers() {
    let im = AdultGenerator::new(3).generate(400);
    let qi = psens::datasets::hierarchies::adult_qi_space();
    let obs = RecordingObserver::new();
    let req = SearchRequest {
        tuning: Tuning {
            threads: 4,
            ..Tuning::default()
        },
        ..SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 3, 20)
    };
    let outcome = exhaustive_scan(&im, &qi, &req, &obs).unwrap();
    let t = obs.telemetry();
    assert_eq!(t.nodes_checked() as usize, outcome.stats.nodes_evaluated);
    assert_eq!(outcome.stats.nodes_evaluated, outcome.stats.lattice_nodes);
}

/// Mondrian reports one `partition_finalized` event per output partition,
/// covering every row.
#[test]
fn mondrian_partitions_are_all_reported() {
    let im = AdultGenerator::new(4).generate(300);
    let obs = RecordingObserver::new();
    let outcome = mondrian_anonymize(
        &im,
        MondrianConfig { k: 5, p: 2 },
        &SearchBudget::unlimited(),
        &obs,
    )
    .unwrap();
    let t = obs.telemetry();
    assert_eq!(t.partitions_finalized as usize, outcome.partitions.len());
    assert_eq!(t.partition_rows as usize, im.n_rows());
}

/// Observing a search — with a no-op or a recording observer — must not
/// change what it finds: same minimal nodes, same counters, same masking.
#[test]
fn observers_change_no_search_outcome() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();

    let plain = exhaustive_scan(&im, &qi, &figure3_request(), &NoopObserver).unwrap();
    let observed =
        exhaustive_scan(&im, &qi, &figure3_request(), &RecordingObserver::new()).unwrap();
    assert_eq!(plain.minimal, observed.minimal);
    assert_eq!(plain.satisfying, observed.satisfying);
    assert_eq!(plain.annotations, observed.annotations);
    assert_eq!(plain.stats, observed.stats);

    let plain = pk_minimal_generalization(&im, &qi, &figure3_request(), &NoopObserver).unwrap();
    let observed =
        pk_minimal_generalization(&im, &qi, &figure3_request(), &RecordingObserver::new()).unwrap();
    assert_eq!(plain.node, observed.node);
    assert_eq!(plain.suppressed, observed.suppressed);
    assert_eq!(plain.stats, observed.stats);

    let plain = levelwise_minimal(&im, &qi, &figure3_request(), &NoopObserver).unwrap();
    let observed =
        levelwise_minimal(&im, &qi, &figure3_request(), &RecordingObserver::new()).unwrap();
    assert_eq!(plain.minimal, observed.minimal);
    assert_eq!(plain.stats, observed.stats);

    let plain = mondrian_anonymize(
        &im,
        MondrianConfig { k: 2, p: 1 },
        &SearchBudget::unlimited(),
        &NoopObserver,
    )
    .unwrap();
    let observed = mondrian_anonymize(
        &im,
        MondrianConfig { k: 2, p: 1 },
        &SearchBudget::unlimited(),
        &RecordingObserver::new(),
    )
    .unwrap();
    assert_eq!(plain.partitions, observed.partitions);
    assert_eq!(plain.splits, observed.splits);
    assert_eq!(plain.masked, observed.masked);
}
