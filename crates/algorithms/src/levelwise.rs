//! Incognito-style bottom-up level-wise search [12].
//!
//! LeFevre et al.'s Incognito enumerates the lattice breadth-first from the
//! bottom, exploiting the *generalization property* (rollup): once a node is
//! known to satisfy the property, no ancestor can be minimal, so none need
//! ever be evaluated. Unlike binary search it finds **all** minimal nodes,
//! evaluating only the "frontier" below and at the minimal boundary.
//!
//! As in the paper's Algorithm 3, the per-node check is Algorithm 2, so the
//! two necessary conditions prune candidates here as well.

use crate::request::{SearchRequest, Setup};
use crate::stats::SearchStats;
use crate::stratum::check_stratum;
use psens_core::{SearchObserver, Termination};
use psens_hierarchy::{Node, QiSpace};
use psens_microdata::hash::FxHashSet;
use psens_microdata::Table;
use std::ops::ControlFlow;

/// Result of the level-wise search.
#[derive(Debug, Clone)]
pub struct LevelWiseOutcome {
    /// All (p-)k-minimal generalizations, in ascending height order.
    /// Every listed node is genuinely minimal even on an interrupted run
    /// (its children were all evaluated before it); the list is *complete*
    /// only for heights up to [`LevelWiseOutcome::completed_height`].
    pub minimal: Vec<Node>,
    /// Highest lattice height whose stratum was fully evaluated; `minimal`
    /// provably contains every minimal node at or below it. `None` when the
    /// budget tripped inside height 0; `Some(lattice.height())` on a
    /// completed run.
    pub completed_height: Option<usize>,
    /// Work counters.
    pub stats: SearchStats,
    /// How the search ended.
    pub termination: Termination,
}

/// Bottom-up search for all minimal satisfying nodes.
///
/// Rollup needs no monotonicity: under Definition 3 a node with a satisfying
/// descendant is not minimal whether or not it satisfies, so skipping it
/// never changes `minimal`. That is why this search stays correct where
/// Samarati's binary search does not (`ts > 0`, see
/// [`pk_minimal_generalization`](crate::pk_minimal_generalization)).
///
/// Heights are processed bottom-up, so under a budget the search is
/// *anytime*: every node in `minimal` is correct, and the set is complete
/// through `completed_height`.
///
/// With `req.tuning.threads > 1` rollup is precomputed on the calling thread
/// before each stratum fans out (children live one height below, so
/// intra-stratum insertions can never change it), workers evaluate the
/// remainder in chunks, and results merge back in node order — the
/// `minimal` set and its order are identical to the serial search for any
/// thread count. A panicked worker's chunk is re-run on the calling thread
/// (tallied in `worker_failures`): dropping it would break the completeness
/// guarantee behind `completed_height`.
pub fn levelwise_minimal<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    req: &SearchRequest<'_>,
    observer: &O,
) -> Result<LevelWiseOutcome, psens_hierarchy::Error> {
    let setup = Setup::new(initial, qi, req)?;
    let check_stats = &*setup.check_stats;
    let tuning = req.tuning;
    let lattice = &setup.lattice;
    let mut stats = setup.stats();

    // Condition 1 settles unsatisfiable p before any lattice work.
    if setup.condition1_fails() {
        stats.aborted_condition1 = true;
        return Ok(LevelWiseOutcome {
            minimal: Vec::new(),
            // The empty answer is exact, no stratum needed evaluation.
            completed_height: Some(lattice.height()),
            stats,
            termination: Termination::Completed,
        });
    }

    let ectx = setup.eval_context(observer)?;
    let mut eval = ectx.evaluator();
    let state = req.budget.start();
    let mut satisfying: FxHashSet<Node> = FxHashSet::default();
    let mut minimal = Vec::new();
    let mut completed_height = None;
    'levels: for height in 0..=lattice.height() {
        stats.heights_probed.push(height);
        observer.height_entered(height);
        // Rollup first: a satisfied child implies a node satisfies, making
        // it satisfying-but-not-minimal with no evaluation needed. Children
        // live one height below, so the rolled-up set is fixed before any
        // evaluation at this height — which is what lets the remainder fan
        // out to workers without changing the result.
        let mut to_eval = Vec::new();
        for node in lattice.nodes_at_height(height) {
            let rolled_up = lattice
                .children(&node)
                .iter()
                .any(|child| satisfying.contains(child));
            if rolled_up {
                satisfying.insert(node);
            } else {
                to_eval.push(node);
            }
        }
        if tuning.effective_threads() == 1 {
            for node in to_eval {
                match eval.check_cached(&node, check_stats, &state, tuning.cache, true, observer)? {
                    ControlFlow::Break(_) => break 'levels,
                    ControlFlow::Continue(cc) => {
                        stats.record_cached(&cc);
                        if cc.satisfied {
                            minimal.push(node.clone());
                            satisfying.insert(node);
                        }
                    }
                }
            }
        } else {
            let (hits, tripped) =
                check_stratum(&setup, &ectx, &to_eval, &state, false, &mut stats, observer)?;
            for ix in hits {
                minimal.push(to_eval[ix].clone());
                satisfying.insert(to_eval[ix].clone());
            }
            if tripped {
                break 'levels;
            }
        }
        completed_height = Some(height);
    }
    Ok(LevelWiseOutcome {
        minimal,
        completed_height,
        stats,
        termination: state.termination(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive_scan;
    use psens_core::{ModelSpec, NoopObserver, SearchBudget};

    fn request(p: u32, k: u32, ts: usize) -> SearchRequest<'static> {
        SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
    }

    fn levelwise(im: &Table, qi: &QiSpace, p: u32, k: u32, ts: usize) -> LevelWiseOutcome {
        levelwise_minimal(im, qi, &request(p, k, ts), &NoopObserver).unwrap()
    }
    use psens_datasets::hierarchies::{adult_qi_space, figure2_qi_space};
    use psens_datasets::paper::figure3_microdata;
    use psens_datasets::AdultGenerator;

    #[test]
    fn agrees_with_exhaustive_on_table4() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for ts in 0..=10usize {
            let exhaustive = exhaustive_scan(&im, &qi, &request(1, 3, ts), &NoopObserver).unwrap();
            let levelwise = levelwise(&im, &qi, 1, 3, ts);
            let mut a = exhaustive.minimal.clone();
            let mut b = levelwise.minimal.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "TS = {ts}");
        }
    }

    #[test]
    fn agrees_with_exhaustive_for_p_sensitivity() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for p in 1..=3u32 {
            for ts in [0usize, 3] {
                let exhaustive =
                    exhaustive_scan(&im, &qi, &request(p, 2, ts), &NoopObserver).unwrap();
                let levelwise = levelwise(&im, &qi, p, 2, ts);
                let mut a = exhaustive.minimal.clone();
                let mut b = levelwise.minimal.clone();
                a.sort();
                b.sort();
                assert_eq!(a, b, "p = {p}, TS = {ts}");
            }
        }
    }

    #[test]
    fn rollup_saves_evaluations() {
        // On the Adult lattice (96 nodes) the level-wise search must evaluate
        // strictly fewer nodes than the exhaustive scan whenever minimal
        // nodes sit below the top.
        let im = AdultGenerator::new(42).generate(300);
        let qi = adult_qi_space();
        let levelwise = levelwise(&im, &qi, 1, 2, 30);
        assert!(!levelwise.minimal.is_empty());
        assert!(
            levelwise.stats.nodes_evaluated < 96,
            "rollup should skip ancestors ({} evaluated)",
            levelwise.stats.nodes_evaluated
        );
    }

    #[test]
    fn impossible_p_aborts() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = levelwise(&im, &qi, 9, 2, 0);
        assert!(outcome.minimal.is_empty());
        assert!(outcome.stats.aborted_condition1);
        assert_eq!(outcome.stats.nodes_evaluated, 0);
        assert_eq!(outcome.termination, Termination::Completed);
        assert_eq!(outcome.completed_height, Some(qi.lattice().height()));
    }

    #[test]
    fn interrupted_minimal_set_is_a_sound_prefix() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let full = levelwise(&im, &qi, 1, 3, 4);
        assert_eq!(full.termination, Termination::Completed);
        assert_eq!(full.completed_height, Some(qi.lattice().height()));
        for max_nodes in 0..full.stats.nodes_evaluated as u64 {
            let req = SearchRequest {
                budget: SearchBudget::unlimited().with_max_nodes(max_nodes),
                ..request(1, 3, 4)
            };
            let outcome = levelwise_minimal(&im, &qi, &req, &NoopObserver).unwrap();
            assert_eq!(outcome.termination, Termination::NodeBudgetExhausted);
            assert!(outcome.stats.nodes_evaluated as u64 <= max_nodes);
            // Anytime guarantee: everything reported minimal really is.
            for node in &outcome.minimal {
                assert!(full.minimal.contains(node), "budget {max_nodes}: {node}");
            }
            // And complete through the completed height.
            if let Some(h) = outcome.completed_height {
                for node in full.minimal.iter().filter(|n| n.height() <= h) {
                    assert!(outcome.minimal.contains(node), "budget {max_nodes}: {node}");
                }
            }
        }
    }
}
