//! Exhaustive lattice scan: evaluates every node and reports the complete
//! set of (p-)k-minimal generalizations.
//!
//! Quadratic in the lattice size but exact — the ground truth the paper's
//! Table 4 tabulates, and the oracle our other search algorithms are tested
//! against.
//!
//! Node evaluations are embarrassingly parallel — workers share one
//! immutable [`EvalContext`] (the code-map cache) and each owns its private
//! evaluator scratch — so with more than one requested thread the node list
//! is split into chunks drained by `std::thread::scope` workers. Workers are
//! fault-isolated: each chunk runs under [`std::panic::catch_unwind`], so a
//! panicking worker loses only its own chunk's results — the surviving
//! chunks complete, the failure is tallied in
//! [`SearchStats::worker_failures`], and the scan degrades coverage instead
//! of aborting the process. All workers share one
//! [`BudgetState`](psens_core::BudgetState), making the node budget global
//! and a trip in one worker stop the others at their next admission.

use crate::request::{SearchRequest, Setup};
use crate::stats::SearchStats;
use crate::stratum::run_chunks;
use psens_core::budget::BudgetState;
use psens_core::conditions::ConfidentialStats;
use psens_core::evaluator::EvalContext;
use psens_core::verdict::VerdictStore;
use psens_core::{SearchObserver, Termination};
use psens_hierarchy::{Node, QiSpace};
use psens_microdata::Table;
use std::ops::ControlFlow;

/// Result of an exhaustive scan.
#[derive(Debug, Clone)]
pub struct ExhaustiveOutcome {
    /// Every satisfying node found, in ascending height order. Complete
    /// exactly when `termination` is [`Termination::Completed`]; otherwise
    /// best-so-far over the nodes evaluated before the budget tripped.
    pub satisfying: Vec<Node>,
    /// The minimal elements of `satisfying` — all (p-)k-minimal
    /// generalizations (paper Definition 3) on a completed run.
    pub minimal: Vec<Node>,
    /// Per-node annotations: `(node, violating_tuples)` for every evaluated
    /// lattice node, the numbers the paper's Figure 3 writes next to each
    /// node.
    pub annotations: Vec<(Node, usize)>,
    /// Work counters.
    pub stats: SearchStats,
    /// How the scan ended.
    pub termination: Termination,
}

/// What one run of the per-node loop produced.
type Scanned = (Vec<Node>, Vec<(Node, usize)>, SearchStats);

/// Scans the whole lattice for maskings satisfying `req.model` and
/// k-anonymity within `req.ts` suppressions.
///
/// With `req.tuning.threads == 1` the nodes are checked in order on the
/// calling thread. Any other count (`0` = all cores) runs the chunked
/// scoped-thread scan, whose results are identical. The chunk boundaries
/// follow the *requested* count, so exactly what one panicking worker can
/// lose does not depend on the host.
///
/// The scan stops at the first refused budget admission and returns
/// everything evaluated up to that point, labelled by the outcome's
/// `termination`. It replays only **exact** cached verdicts from
/// `tuning.cache` (`allow_inferred` off): its per-node annotations need the
/// exact `violating_tuples` count, which an inferred k-failure cannot
/// supply, so an inferred-only entry misses and is upgraded to an exact
/// record by the fresh check.
pub fn exhaustive_scan<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    req: &SearchRequest<'_>,
    observer: &O,
) -> Result<ExhaustiveOutcome, psens_hierarchy::Error> {
    let setup = Setup::new(initial, qi, req);
    // Code-mapped kernel: hoist per-(attribute, level) code maps out of the
    // scan, then check each node on u32 vectors — no table materialization.
    let ectx = setup.eval_context(observer)?;
    let nodes = setup.lattice.all_nodes();
    let state = req.budget.start();
    let cache = req.tuning.cache;
    let scan = |_: usize, chunk: &[Node]| {
        scan_nodes(&ectx, chunk, &setup.check_stats, &state, cache, observer)
    };
    let mut stats = setup.stats();

    // `None` marks a chunk whose worker panicked; its results are lost.
    let partials: Vec<Option<Result<Scanned, _>>> = if req.tuning.threads == 1 {
        vec![Some(scan(0, &nodes))]
    } else {
        let threads = req.tuning.effective_threads();
        // Work is partitioned by the *requested* worker count (0 = all
        // cores), so chunk boundaries — and therefore exactly what one
        // panicking worker can lose — do not depend on which host the
        // search happens to run on. The oversubscription clamp applies to
        // OS threads only: at most `threads` executors drain those chunks
        // from a shared cursor.
        let partitions = match req.tuning.threads {
            0 => threads,
            n => n,
        };
        let chunks: Vec<&[Node]> = nodes
            .chunks(nodes.len().div_ceil(partitions).max(1))
            .collect();
        stats.effective_threads = threads.min(chunks.len());
        run_chunks(&chunks, stats.effective_threads, &scan)
    };

    let mut satisfying = Vec::new();
    let mut annotations = Vec::new();
    for partial in partials {
        match partial {
            Some(chunk) => {
                let (s, a, st) = chunk?;
                satisfying.extend(s);
                annotations.extend(a);
                stats.merge(&st);
            }
            None => stats.worker_failures += 1,
        }
    }
    // Chunks are produced in node order, so results are already ordered.
    let minimal = setup.lattice.minimal_elements(&satisfying);
    Ok(ExhaustiveOutcome {
        satisfying,
        minimal,
        annotations,
        stats,
        termination: state.termination(),
    })
}

/// The per-node loop both paths share: checks `nodes` in order, stopping at
/// the first refused budget admission.
fn scan_nodes<O: SearchObserver>(
    ectx: &EvalContext,
    nodes: &[Node],
    check_stats: &ConfidentialStats,
    state: &BudgetState,
    cache: Option<&VerdictStore>,
    observer: &O,
) -> Result<Scanned, psens_hierarchy::Error> {
    let mut eval = ectx.evaluator();
    let mut satisfying = Vec::new();
    let mut annotations = Vec::new();
    let mut stats = SearchStats::default();
    for node in nodes {
        match eval.check_cached(node, check_stats, state, cache, false, observer)? {
            ControlFlow::Break(_) => break,
            ControlFlow::Continue(cc) => {
                stats.record_cached(&cc);
                let check = cc
                    .check
                    .as_ref()
                    .expect("exact-only lookups always carry a NodeCheck");
                annotations.push((node.clone(), check.violating_tuples));
                if cc.satisfied {
                    satisfying.push(node.clone());
                }
            }
        }
    }
    Ok((satisfying, annotations, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::Tuning;
    use psens_core::{ModelSpec, NoopObserver};
    use psens_datasets::hierarchies::{adult_qi_space, figure2_qi_space};
    use psens_datasets::paper::figure3_microdata;
    use psens_datasets::AdultGenerator;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn scan(
        im: &Table,
        qi: &QiSpace,
        p: u32,
        k: u32,
        ts: usize,
        threads: usize,
    ) -> ExhaustiveOutcome {
        let req = SearchRequest {
            tuning: Tuning {
                threads,
                ..Tuning::default()
            },
            ..SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
        };
        exhaustive_scan(im, qi, &req, &NoopObserver).unwrap()
    }

    #[test]
    fn figure3_annotations_match_paper() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = scan(&im, &qi, 1, 3, 0, 1);
        let expect = [
            (Node(vec![0, 0]), 10),
            (Node(vec![1, 0]), 7),
            (Node(vec![0, 1]), 7),
            (Node(vec![1, 1]), 2),
            (Node(vec![0, 2]), 0),
            (Node(vec![1, 2]), 0),
        ];
        for (node, violations) in expect {
            let found = outcome
                .annotations
                .iter()
                .find(|(n, _)| *n == node)
                .map(|(_, v)| *v);
            assert_eq!(found, Some(violations), "node {node}");
        }
    }

    #[test]
    fn table4_minimal_sets_exact() {
        // The paper's Table 4, cell for cell.
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let expect: &[(&[usize], &[Node])] = &[
            (&[0, 1], &[Node(vec![0, 2])]),
            (&[2, 3, 4, 5, 6], &[Node(vec![0, 2]), Node(vec![1, 1])]),
            (&[7, 8, 9], &[Node(vec![0, 1]), Node(vec![1, 0])]),
            (&[10], &[Node(vec![0, 0])]),
        ];
        for (ts_values, nodes) in expect {
            for &ts in *ts_values {
                let outcome = scan(&im, &qi, 1, 3, ts, 1);
                let mut minimal = outcome.minimal.clone();
                minimal.sort();
                let mut expected = nodes.to_vec();
                expected.sort();
                assert_eq!(minimal, expected, "TS = {ts}");
            }
        }
    }

    #[test]
    fn satisfying_set_is_upward_closed() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = scan(&im, &qi, 1, 3, 4, 1);
        let lattice = qi.lattice();
        for node in &outcome.satisfying {
            for parent in lattice.parents(node) {
                assert!(
                    outcome.satisfying.contains(&parent),
                    "parent {parent} of satisfying {node} must satisfy"
                );
            }
        }
    }

    #[test]
    fn minimal_nodes_are_minimal() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = scan(&im, &qi, 2, 2, 3, 1);
        for a in &outcome.minimal {
            for b in &outcome.satisfying {
                assert!(
                    !a.strictly_dominates(b),
                    "minimal {a} dominates satisfying {b}"
                );
            }
        }
    }

    #[test]
    fn matches_serial_scan_exactly() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for threads in [2usize, 4, 16] {
            for ts in [0usize, 5, 10] {
                let serial = scan(&im, &qi, 1, 3, ts, 1);
                let parallel = scan(&im, &qi, 1, 3, ts, threads);
                assert_eq!(
                    serial.satisfying, parallel.satisfying,
                    "ts={ts} t={threads}"
                );
                assert_eq!(serial.minimal, parallel.minimal);
                assert_eq!(serial.annotations, parallel.annotations);
            }
        }
    }

    #[test]
    fn matches_serial_on_adult() {
        let im = AdultGenerator::new(51).generate(300);
        let qi = adult_qi_space();
        let serial = scan(&im, &qi, 2, 2, 15, 1);
        let parallel = scan(&im, &qi, 2, 2, 15, 4);
        assert_eq!(serial.minimal, parallel.minimal);
        assert_eq!(serial.stats.nodes_evaluated, parallel.stats.nodes_evaluated);
    }

    #[test]
    fn oversubscribed_request_clamps_and_matches_single_thread() {
        // BENCH_6 regression: `--threads 8` on a 1-core host ran at
        // 0.60-0.74x of threads=1. Requesting more workers than cores must
        // now degrade to the available parallelism, produce identical
        // results, and report both counts honestly.
        let im = AdultGenerator::new(7).generate(200);
        let qi = adult_qi_space();
        let available = std::thread::available_parallelism().map_or(1, usize::from);
        let baseline = scan(&im, &qi, 2, 3, 10, 1);
        let oversub = scan(&im, &qi, 2, 3, 10, 1024);
        assert_eq!(baseline.minimal, oversub.minimal);
        assert_eq!(baseline.annotations, oversub.annotations);
        assert_eq!(oversub.stats.requested_threads, 1024);
        assert_eq!(oversub.stats.effective_threads, available);
        assert_eq!(baseline.stats.requested_threads, 1);
        assert_eq!(baseline.stats.effective_threads, 1);
    }

    #[test]
    fn more_threads_than_nodes_is_fine() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = scan(&im, &qi, 1, 3, 0, 64);
        assert_eq!(outcome.stats.nodes_evaluated, 6);
        // Zero means one worker per core.
        let outcome = scan(&im, &qi, 1, 3, 0, 0);
        assert_eq!(outcome.stats.nodes_evaluated, 6);
    }

    /// Panics on every check of one node, so only a fault-isolated worker
    /// survives it.
    struct PanicAt(Node);

    impl SearchObserver for PanicAt {
        fn node_checked(
            &self,
            height: usize,
            _stage: psens_core::CheckStage,
            _suppressed: usize,
            _elapsed: std::time::Duration,
        ) {
            assert_ne!(height, self.0.height(), "poisoned height");
        }
    }

    #[test]
    fn thread_count_selects_the_path_and_is_reported_honestly() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let poison = PanicAt(Node(vec![0, 0]));
        let req = |threads| SearchRequest {
            tuning: Tuning {
                threads,
                ..Tuning::default()
            },
            ..SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 3, 0)
        };

        // threads = 1 is the serial loop: one worker, and a panic is not
        // isolated.
        let serial = exhaustive_scan(&im, &qi, &req(1), &NoopObserver).unwrap();
        assert_eq!(serial.stats.effective_threads, 1);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            exhaustive_scan(&im, &qi, &req(1), &poison)
        }));
        assert!(unwound.is_err(), "the serial scan has no fault isolation");

        // threads = 2 is the chunked path: the poisoned chunk is dropped and
        // counted, the other chunk completes.
        let chunked = exhaustive_scan(&im, &qi, &req(2), &poison).unwrap();
        assert_eq!(chunked.stats.requested_threads, 2);
        assert_eq!(chunked.stats.worker_failures, 1);
        assert_eq!(chunked.annotations.len(), 3, "one 3-node chunk survives");
        let available = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(chunked.stats.effective_threads, available.min(2));
    }
}
