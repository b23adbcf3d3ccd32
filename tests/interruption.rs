//! End-to-end interruption behaviour across the search algorithms.
//!
//! Three guarantees are pinned down here:
//!
//! 1. **Determinism** — a node budget of `N` stops a serial search at exactly
//!    the same place every run, so interrupted results are reproducible.
//! 2. **Cancellation ≡ budget** — tripping the [`CancelToken`] after `N`
//!    node checks (with a check interval of 1) yields the same partial
//!    results as `--max-nodes N`; only the recorded cause differs.
//! 3. **Worker fault isolation** — a panicking worker in the parallel scan
//!    loses only its own chunk: survivors complete, the failure is tallied
//!    in `worker_failures`, and the process does not abort.

use psens::algorithms::{
    exhaustive_scan, levelwise_minimal, mondrian_anonymize, pk_minimal_generalization,
    MondrianConfig, SearchRequest, Tuning,
};
use psens::core::{
    CancelToken, CheckStage, ModelSpec, NoopObserver, SearchBudget, SearchObserver, Termination,
    VerdictStore,
};
use psens::datasets::hierarchies::{adult_qi_space, figure2_qi_space};
use psens::datasets::paper::figure3_microdata;
use psens::datasets::AdultGenerator;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A p-sensitive k-anonymity request under `budget`.
fn budgeted(p: u32, k: u32, ts: usize, budget: SearchBudget) -> SearchRequest<'static> {
    SearchRequest {
        budget,
        ..SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
    }
}

fn threads(threads: usize) -> Tuning<'static> {
    Tuning {
        threads,
        ..Tuning::default()
    }
}

#[test]
fn node_budgets_stop_every_algorithm_with_the_right_verdict() {
    let im = AdultGenerator::new(90).generate(300);
    let qi = adult_qi_space();
    let budget = SearchBudget::unlimited().with_max_nodes(3);
    let req = budgeted(2, 2, 15, budget.clone());

    let unlimited = SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 2, 15);
    let full = exhaustive_scan(&im, &qi, &unlimited, &NoopObserver).unwrap();
    assert!(full.stats.nodes_evaluated > 3, "budget must actually bind");

    // Exhaustive: the node budget is exact — three admissions, three nodes.
    let ex = exhaustive_scan(&im, &qi, &req, &NoopObserver).unwrap();
    assert_eq!(ex.termination, Termination::NodeBudgetExhausted);
    assert_eq!(ex.stats.nodes_evaluated, 3);

    // The shared budget is global across workers, so the parallel scan
    // admits the same total.
    let parallel = SearchRequest {
        tuning: threads(4),
        ..req.clone()
    };
    let par = exhaustive_scan(&im, &qi, &parallel, &NoopObserver).unwrap();
    assert_eq!(par.termination, Termination::NodeBudgetExhausted);
    assert_eq!(par.stats.nodes_evaluated, 3);

    let sam = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
    assert_eq!(sam.termination, Termination::NodeBudgetExhausted);
    assert!(sam.stats.nodes_evaluated <= 3);

    let lw = levelwise_minimal(&im, &qi, &req, &NoopObserver).unwrap();
    assert_eq!(lw.termination, Termination::NodeBudgetExhausted);
    assert!(lw.stats.nodes_evaluated <= 3);

    // Mondrian finalizes pending partitions and stays a valid cover.
    let mon =
        mondrian_anonymize(&im, MondrianConfig { k: 5, p: 1 }, &budget, &NoopObserver).unwrap();
    assert_eq!(mon.termination, Termination::NodeBudgetExhausted);
    let covered: usize = mon.partitions.iter().map(Vec::len).sum();
    assert_eq!(covered, im.n_rows());
}

#[test]
fn interrupted_runs_are_deterministic() {
    let im = AdultGenerator::new(91).generate(250);
    let qi = adult_qi_space();
    for n in [0u64, 1, 5, 17] {
        let req = budgeted(2, 2, 10, SearchBudget::unlimited().with_max_nodes(n));
        let a = exhaustive_scan(&im, &qi, &req, &NoopObserver).unwrap();
        let b = exhaustive_scan(&im, &qi, &req, &NoopObserver).unwrap();
        assert_eq!(a.satisfying, b.satisfying, "n={n}");
        assert_eq!(a.annotations, b.annotations, "n={n}");
        assert_eq!(a.stats, b.stats, "n={n}");
        assert_eq!(a.termination, b.termination, "n={n}");

        let sa = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
        let sb = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
        assert_eq!(sa.node, sb.node, "n={n}");
        assert_eq!(sa.proven_min_height, sb.proven_min_height, "n={n}");
        assert_eq!(sa.stats, sb.stats, "n={n}");
    }
}

/// Trips `token` once `node_checked` has fired `remaining` times.
struct CancelAfter {
    token: CancelToken,
    remaining: AtomicU64,
}

impl SearchObserver for CancelAfter {
    fn node_checked(&self, _h: usize, _s: CheckStage, _sup: usize, _e: Duration) {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.token.cancel();
        }
    }
}

#[test]
fn cancellation_equals_an_equivalent_node_budget() {
    let im = AdultGenerator::new(92).generate(200);
    let qi = adult_qi_space();
    for n in [1u64, 4, 9] {
        let req = budgeted(2, 2, 10, SearchBudget::unlimited().with_max_nodes(n));
        let budgeted_run = exhaustive_scan(&im, &qi, &req, &NoopObserver).unwrap();
        assert_eq!(budgeted_run.termination, Termination::NodeBudgetExhausted);

        // Cancel after exactly n checks; a check interval of 1 makes the
        // trip visible at the very next admission.
        let token = CancelToken::new();
        let observer = CancelAfter {
            token: token.clone(),
            remaining: AtomicU64::new(n),
        };
        let budget = SearchBudget::unlimited()
            .with_cancel(token)
            .with_check_interval(1);
        let cancelled = exhaustive_scan(&im, &qi, &budgeted(2, 2, 10, budget), &observer).unwrap();
        assert_eq!(cancelled.termination, Termination::Cancelled, "n={n}");
        assert_eq!(
            budgeted_run.stats.nodes_evaluated,
            cancelled.stats.nodes_evaluated
        );
        assert_eq!(budgeted_run.satisfying, cancelled.satisfying, "n={n}");
        assert_eq!(budgeted_run.annotations, cancelled.annotations, "n={n}");
    }
}

#[test]
fn an_already_expired_deadline_trips_before_any_work() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    let req = budgeted(
        1,
        2,
        0,
        SearchBudget::unlimited().with_timeout(Duration::ZERO),
    );
    let outcome = exhaustive_scan(&im, &qi, &req, &NoopObserver).unwrap();
    assert_eq!(outcome.termination, Termination::DeadlineExceeded);
    assert_eq!(outcome.stats.nodes_evaluated, 0);
}

/// Panics on the first `node_checked` call only — whichever worker draws it.
struct PanicOnce(AtomicBool);

impl SearchObserver for PanicOnce {
    fn node_checked(&self, _h: usize, _s: CheckStage, _sup: usize, _e: Duration) {
        if !self.0.swap(true, Ordering::SeqCst) {
            panic!("injected observer failure");
        }
    }
}

#[test]
fn a_panicking_worker_loses_only_its_own_chunk() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    // 6 lattice nodes across 4 requested workers -> 3 chunks of 2 nodes.
    let req = SearchRequest {
        tuning: threads(4),
        ..SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 2, 0)
    };
    let full = exhaustive_scan(&im, &qi, &req, &NoopObserver).unwrap();
    assert_eq!(full.stats.nodes_evaluated, 6);
    assert_eq!(full.stats.worker_failures, 0);

    let observer = PanicOnce(AtomicBool::new(false));
    let outcome = exhaustive_scan(&im, &qi, &req, &observer).unwrap();
    // Exactly one worker panicked (on its first node), losing its 2-node
    // chunk; the other two chunks complete normally.
    assert_eq!(outcome.stats.worker_failures, 1);
    assert_eq!(outcome.stats.nodes_evaluated, 4);
    assert_eq!(outcome.termination, Termination::Completed);
    for node in &outcome.satisfying {
        assert!(full.satisfying.contains(node), "phantom result {node}");
    }
    for annotation in &outcome.annotations {
        assert!(full.annotations.contains(annotation));
    }
}

#[test]
fn replayed_verdicts_do_not_consume_the_node_budget() {
    let im = AdultGenerator::new(93).generate(200);
    let qi = adult_qi_space();
    let (p, k, ts) = (2u32, 2u32, 10usize);
    let lattice = qi.lattice();
    let cold_req = budgeted(p, k, ts, SearchBudget::unlimited().with_max_nodes(10));

    // Cold, the ten-node budget binds and every admission is a fresh check.
    let cold = exhaustive_scan(&im, &qi, &cold_req, &NoopObserver).unwrap();
    assert_eq!(cold.termination, Termination::NodeBudgetExhausted);
    assert_eq!(cold.stats.nodes_evaluated, 10);

    // Partial warm: the same budget with a store admits the same ten nodes.
    let store = VerdictStore::new(&lattice, ts);
    let tuning = Tuning {
        threads: 1,
        cache: Some(&store),
        ..Tuning::default()
    };
    let warm_req = SearchRequest {
        tuning,
        ..cold_req.clone()
    };
    let first = exhaustive_scan(&im, &qi, &warm_req, &NoopObserver).unwrap();
    assert_eq!(first.stats.nodes_evaluated, 10);
    assert_eq!(first.annotations, cold.annotations);

    // Rerunning under the *same* budget, the warm prefix replays without
    // consuming admissions, so ten new nodes are admitted and the scan gets
    // strictly further: producing the cold run's ten annotations cost zero
    // fresh evaluations this time.
    let second = exhaustive_scan(&im, &qi, &warm_req, &NoopObserver).unwrap();
    assert_eq!(second.stats.cache_hits, 10);
    assert_eq!(second.stats.nodes_evaluated, 10);
    assert_eq!(second.annotations.len(), 20);
    assert_eq!(second.annotations[..10], cold.annotations[..]);

    // A fully warm store completes under the tripping budget with zero
    // fresh evaluations — strictly fewer than the cold run's ten.
    let unlimited = SearchRequest {
        tuning,
        ..SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
    };
    let full = exhaustive_scan(&im, &qi, &unlimited, &NoopObserver).unwrap();
    let warm = exhaustive_scan(&im, &qi, &warm_req, &NoopObserver).unwrap();
    assert_eq!(warm.termination, Termination::Completed);
    assert_eq!(warm.stats.nodes_evaluated, 0);
    assert!(warm.stats.nodes_evaluated < cold.stats.nodes_evaluated);
    assert_eq!(warm.stats.cache_hits, full.annotations.len());
    assert_eq!(warm.annotations, full.annotations);
    assert_eq!(warm.satisfying, full.satisfying);
}

#[test]
fn inferred_verdicts_never_count_against_the_budget() {
    // This (seed, p, k, TS) combination is chosen so the binary search's
    // probe path provably reaches nodes below a recorded k-failure: with
    // any other verdict source the `cache_inferred > 0` assertion below
    // would not distinguish inferred replays from exact ones.
    let im = AdultGenerator::new(93).generate(200);
    let qi = adult_qi_space();
    let (p, k, ts) = (2u32, 5u32, 0usize);
    let lattice = qi.lattice();
    let store = VerdictStore::new(&lattice, ts);
    let tuning = Tuning {
        threads: 1,
        cache: Some(&store),
        ..Tuning::default()
    };

    // A completed, unlimited binary search settles its own probe path:
    // probed nodes hold exact verdicts, or inferred k-failures where a
    // recorded ancestor already condemned them.
    let settle = SearchRequest {
        tuning,
        ..SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
    };
    pk_minimal_generalization(&im, &qi, &settle, &NoopObserver).unwrap();

    // Under a zero-node budget any admission trips immediately, so the only
    // way the binary search can finish is if every probe — including those
    // answered purely by inference — bypasses budget accounting.
    let cold_req = budgeted(p, k, ts, SearchBudget::unlimited().with_max_nodes(0));
    let warm_req = SearchRequest {
        tuning,
        ..cold_req.clone()
    };
    let warm = pk_minimal_generalization(&im, &qi, &warm_req, &NoopObserver).unwrap();
    assert_eq!(warm.termination, Termination::Completed);
    assert_eq!(warm.stats.nodes_evaluated, 0);
    assert!(
        warm.stats.cache_inferred > 0,
        "the probe must have consulted at least one inferred k-failure"
    );

    // Cold, the same zero budget trips before any work.
    let cold = pk_minimal_generalization(&im, &qi, &cold_req, &NoopObserver).unwrap();
    assert_eq!(cold.termination, Termination::NodeBudgetExhausted);
}
