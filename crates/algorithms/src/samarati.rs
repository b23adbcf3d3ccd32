//! Samarati's binary search for a (p-)k-minimal generalization, and the
//! paper's **Algorithm 3** extension with the two necessary conditions.
//!
//! The search exploits monotonicity: if a node satisfies the property, so
//! does every node above it [19]. Binary search on *height* therefore finds
//! the smallest height at which some node satisfies; any satisfying node at
//! that height is a minimal generalization. Algorithm 3 adds, underlined in
//! the paper: an up-front Condition 1 abort, and a per-node Condition 2 skip
//! that avoids the detailed scan for nodes with too many QI-groups.
//!
//! Monotonicity holds at `ts = 0`, and for plain k-anonymity at any `ts`,
//! but not for a model with `ts > 0`; see [`pk_minimal_generalization`] for
//! what the search can then return.

use crate::request::{SearchRequest, Setup};
use crate::stats::SearchStats;
use crate::stratum::check_stratum;
use crate::tuning::Tuning;
use psens_core::budget::BudgetState;
use psens_core::conditions::ConfidentialStats;
use psens_core::evaluator::{EvalContext, NodeEvaluator};
use psens_core::{ModelSpec, SearchBudget, SearchObserver, Termination};
use psens_hierarchy::{Node, QiSpace};
use psens_microdata::Table;
use std::ops::ControlFlow;

/// Whether Algorithm 3's necessary-condition pruning is active — the ablation
/// knob for the paper's future-work comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pruning {
    /// Plain Samarati + Algorithm 1: every candidate gets the full check.
    None,
    /// Algorithm 3: Condition 1 aborts, Condition 2 skips candidates.
    NecessaryConditions,
}

/// Result of a lattice search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// A minimal satisfying node, or `None` when the property is
    /// unachievable (even the lattice top fails). On an interrupted run
    /// this is the best feasible node proven so far (anytime behaviour) —
    /// satisfying, but not necessarily minimal.
    pub node: Option<Node>,
    /// The masked microdata at `node` (generalized + suppressed).
    pub masked: Option<Table>,
    /// Number of tuples suppressed at `node`.
    pub suppressed: usize,
    /// Tightest lower bound on the minimal satisfiable height the probes
    /// establish: a failed probe at height `h` rules out all heights `<= h`
    /// by monotonicity. On a completed run this equals the found node's
    /// height, or `lattice.height() + 1` when the instance is
    /// unsatisfiable; on an interrupted run it is the bound established
    /// before the budget tripped. The bound is a proof only where
    /// monotonicity holds — at `ts = 0`, or for plain k-anonymity; with
    /// `ts > 0` a lower height may still hold a satisfying node (see
    /// [`pk_minimal_generalization`]).
    pub proven_min_height: usize,
    /// Work counters.
    pub stats: SearchStats,
    /// How the search ended. `node`/`proven_min_height` are exact iff this
    /// is [`Termination::Completed`].
    pub termination: Termination,
}

/// The paper's **Algorithm 3**: finds a **p-k-minimal generalization**
/// (Definition 3) by binary search over heights, optionally pruned by the
/// two necessary conditions.
///
/// Generalized over the pluggable privacy models: the result is a minimal
/// generalization whose masked microdata is k-anonymous within `ts`
/// suppressions **and** satisfies `req.model` in every surviving QI-group.
/// `ModelSpec::PSensitiveK { p: 1 }` is Samarati's k-minimal
/// generalization [19]. Condition 1 aborts through each model's
/// [`ModelSpec::conditions_p`] implication.
///
/// Under a budget the search is *anytime*: an interrupted run returns the
/// best satisfying node proven so far (if any probe succeeded) together with
/// the tightest height bound proven by the failed probes, labelled by
/// `termination`.
///
/// **Limit: the binary search assumes monotonicity.** It holds at `ts = 0`,
/// and for plain k-anonymity (`p = 1`) at any `ts`. With `ts > 0` a node
/// can pass by suppressing undersized groups whose tuples an ancestor
/// re-admits into a group that fails the model, so a failed probe no longer
/// rules out lower heights: the returned node may not be minimal, and
/// `proven_min_height` may overstate the minimal height. Example:
/// t-closeness (t = 0.1), k = 2, TS = 1 over one Zip attribute generalized
/// `41076, 41099, 43102 → 41***, 43*** → *****`, with rows 41076: {a, b},
/// 41099: {a} and 43102: 5×a + 6×b. The search returns ⟨2⟩ with
/// `proven_min_height` 2, but ⟨0⟩ satisfies by suppressing 41099, and
/// `levelwise_minimal` and `exhaustive_scan` both report ⟨0⟩ as the minimal
/// node. psens-k (p = 2) fails the same way.
///
/// With `req.tuning.threads > 1` each probed stratum is chunked across
/// scoped workers; every worker stops at its chunk's first satisfier, and
/// the lowest-index hit wins, so the returned node (and
/// `proven_min_height`) is identical to the serial search for any thread
/// count. A panicked worker's chunk is re-run on the calling thread
/// (tallied in `worker_failures`) — dropping it could hide a satisfier and
/// falsify the height bound.
pub fn pk_minimal_generalization<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    req: &SearchRequest<'_>,
    observer: &O,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    let setup = Setup::new(initial, qi, req)?;
    let mut stats = setup.stats();
    let lattice = &setup.lattice;

    // Algorithm 3: "first necessary condition can be checked from the
    // beginning" — one comparison settles unsatisfiable instances.
    if setup.condition1_fails() {
        stats.aborted_condition1 = true;
        return Ok(SearchOutcome {
            node: None,
            masked: None,
            suppressed: 0,
            // Condition 1 is height-independent: no height can satisfy.
            proven_min_height: lattice.height() + 1,
            stats,
            termination: Termination::Completed,
        });
    }

    // Candidate nodes run through the code-mapped kernel; the returned
    // node's table is materialized once, after the search.
    let ectx = setup.eval_context(observer)?;
    let mut eval = ectx.evaluator();
    let state = req.budget.start();
    let mut low = 0usize;
    let mut high = lattice.height();
    let mut best: Option<Node> = None;

    // Monotonicity makes "some node at height h satisfies" monotone in h, so
    // binary search converges on the minimal satisfiable height (where it
    // holds; see the limit in the function docs). Invariant:
    // every height `< low` has been proven infeasible by a failed probe, and
    // `best` (when set) is a satisfying node at height `high`.
    'search: {
        while low < high {
            let try_height = (low + high) / 2;
            stats.heights_probed.push(try_height);
            observer.height_entered(try_height);
            let found = probe_height(
                &setup, &ectx, &mut eval, try_height, &state, &mut stats, observer,
            )?;
            match found {
                ControlFlow::Break(_) => break 'search,
                ControlFlow::Continue(Some(hit)) => {
                    best = Some(hit);
                    high = try_height;
                }
                ControlFlow::Continue(None) => low = try_height + 1,
            }
        }
        // `low == high`: verify the final height (binary search never probes
        // the initial `high`, and for unsatisfiable instances no height
        // works).
        if best.as_ref().map(Node::height) != Some(low) {
            stats.heights_probed.push(low);
            observer.height_entered(low);
            match probe_height(&setup, &ectx, &mut eval, low, &state, &mut stats, observer)? {
                ControlFlow::Break(_) => break 'search,
                ControlFlow::Continue(Some(hit)) => best = Some(hit),
                // A complete failed probe at `low` rules that height out too
                // (here `low == lattice.height()`: proven unsatisfiable).
                ControlFlow::Continue(None) => low += 1,
            }
        }
    }

    // Free the kernel's code maps and partition scratch first: the release
    // table is the largest allocation a search makes, and the two need
    // never be live together.
    drop(eval);
    drop(ectx);
    let (masked, suppressed) = match &best {
        Some(node) => {
            let outcome = setup
                .ctx
                .evaluate_observed(node, &setup.check_stats, observer)?;
            (Some(outcome.masked), outcome.suppressed)
        }
        None => (None, 0),
    };
    Ok(SearchOutcome {
        node: best,
        masked,
        suppressed,
        proven_min_height: low,
        stats,
        termination: state.termination(),
    })
}

/// [`pk_minimal_generalization`] with every request field spelled out and
/// the statistics supplied. Exists only for `benchmark/src/replay.rs`, which
/// compiles against this signature; everything else builds a
/// [`SearchRequest`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn pk_minimal_generalization_model_with_stats<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    spec: ModelSpec,
    k: u32,
    ts: usize,
    pruning: Pruning,
    budget: &SearchBudget,
    tuning: Tuning<'_>,
    observer: &O,
    stats: &ConfidentialStats,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    let req = SearchRequest {
        pruning,
        budget: budget.clone(),
        tuning,
        stats: Some(stats),
        ..SearchRequest::new(spec, k, ts)
    };
    pk_minimal_generalization(initial, qi, &req, observer)
}

/// Checks the nodes of one lattice stratum and returns the first satisfier;
/// no table is materialized. Breaks as soon as the budget refuses a node
/// admission — an interrupted probe proves nothing about its height.
///
/// With `tuning.threads > 1` the stratum is chunked across scoped workers;
/// serial and parallel probes return the same node (the lowest-index
/// satisfier), the serial path keeping its historical stats bit-for-bit.
fn probe_height<O: SearchObserver>(
    setup: &Setup<'_>,
    ectx: &EvalContext,
    eval: &mut NodeEvaluator<'_>,
    height: usize,
    state: &BudgetState,
    stats: &mut SearchStats,
    observer: &O,
) -> Result<ControlFlow<Termination, Option<Node>>, psens_hierarchy::Error> {
    let check_stats = &*setup.check_stats;
    let tuning = setup.req.tuning;
    let nodes = setup.lattice.nodes_at_height(height);
    if tuning.effective_threads() == 1 {
        for node in nodes {
            let cc =
                match eval.check_cached(&node, check_stats, state, tuning.cache, true, observer)? {
                    ControlFlow::Break(cause) => return Ok(ControlFlow::Break(cause)),
                    ControlFlow::Continue(cc) => cc,
                };
            stats.record_cached(&cc);
            if cc.satisfied {
                return Ok(ControlFlow::Continue(Some(node)));
            }
        }
        return Ok(ControlFlow::Continue(None));
    }

    let (hits, tripped) = check_stratum(setup, ectx, &nodes, state, true, stats, observer)?;
    if tripped {
        // An interrupted probe proves nothing about this height; the latched
        // cause is reported like a serial admission refusal.
        return Ok(ControlFlow::Break(state.termination()));
    }
    Ok(ControlFlow::Continue(
        hits.first().map(|&ix| nodes[ix].clone()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_core::NoopObserver;
    use psens_datasets::hierarchies::figure2_qi_space;
    use psens_datasets::paper::figure3_microdata;

    /// Samarati's k-minimal generalization: p-sensitivity with p = 1.
    fn k_search(im: &Table, qi: &QiSpace, k: u32, ts: usize) -> SearchOutcome {
        let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, k, ts);
        pk_minimal_generalization(im, qi, &req, &NoopObserver).unwrap()
    }

    fn pk_search(
        im: &Table,
        qi: &QiSpace,
        p: u32,
        k: u32,
        ts: usize,
        pruning: Pruning,
    ) -> SearchOutcome {
        let req = SearchRequest {
            pruning,
            ..SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
        };
        pk_minimal_generalization(im, qi, &req, &NoopObserver).unwrap()
    }

    /// The paper's Table 4: expected 3-minimal generalizations by TS.
    /// (Binary search returns *one* of them.)
    fn table4_expected(ts: usize) -> Vec<Node> {
        match ts {
            0 | 1 => vec![Node(vec![0, 2])],
            2..=6 => vec![Node(vec![0, 2]), Node(vec![1, 1])],
            7..=9 => vec![Node(vec![1, 0]), Node(vec![0, 1])],
            10 => vec![Node(vec![0, 0])],
            _ => unreachable!(),
        }
    }

    #[test]
    fn binary_search_reproduces_table4_heights() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for ts in 0..=10usize {
            let outcome = k_search(&im, &qi, 3, ts);
            let node = outcome.node.expect("3-anonymity is achievable");
            let expected = table4_expected(ts);
            assert!(
                expected.contains(&node),
                "TS={ts}: got {node}, expected one of {expected:?}"
            );
            // All expected nodes share a height; ours must match it.
            assert_eq!(node.height(), expected[0].height(), "TS={ts}");
        }
    }

    #[test]
    fn masked_output_is_k_anonymous() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = k_search(&im, &qi, 3, 2);
        let masked = outcome.masked.unwrap();
        let keys = masked.schema().key_indices();
        assert!(psens_core::is_k_anonymous(&masked, &keys, 3));
        assert!(outcome.suppressed <= 2);
    }

    #[test]
    fn pk_search_finds_sensitive_node() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        // p = 2: groups must carry >= 2 illnesses.
        for pruning in [Pruning::None, Pruning::NecessaryConditions] {
            let outcome = pk_search(&im, &qi, 2, 2, 0, pruning);
            assert!(outcome.node.is_some(), "achievable");
            let masked = outcome.masked.unwrap();
            let keys = masked.schema().key_indices();
            let conf = masked.schema().confidential_indices();
            assert!(psens_core::is_p_sensitive_k_anonymous(
                &masked, &keys, &conf, 2, 2
            ));
        }
    }

    #[test]
    fn pruned_and_unpruned_agree_on_node_height() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for p in 1..=3u32 {
            for k in [2u32, 3] {
                for ts in [0usize, 2, 5] {
                    let a = pk_search(&im, &qi, p, k, ts, Pruning::None);
                    let b = pk_search(&im, &qi, p, k, ts, Pruning::NecessaryConditions);
                    assert_eq!(
                        a.node.as_ref().map(Node::height),
                        b.node.as_ref().map(Node::height),
                        "p={p} k={k} ts={ts}"
                    );
                }
            }
        }
    }

    #[test]
    fn condition1_aborts_impossible_p() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        // Illness has 3 distinct values; p = 4 is impossible.
        let outcome = pk_search(&im, &qi, 4, 2, 0, Pruning::NecessaryConditions);
        assert!(outcome.node.is_none());
        assert!(outcome.stats.aborted_condition1);
        assert_eq!(outcome.stats.nodes_evaluated, 0);
        // The unpruned search grinds through the lattice to learn the same.
        let outcome = pk_search(&im, &qi, 4, 2, 0, Pruning::None);
        assert!(outcome.node.is_none());
        assert!(outcome.stats.nodes_evaluated > 0);
    }

    #[test]
    fn unsatisfiable_k_returns_none() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        // k = 11 with 10 tuples and TS = 0 cannot hold even at the top.
        let outcome = k_search(&im, &qi, 11, 0);
        assert!(outcome.node.is_none());
    }

    #[test]
    fn stats_record_probes() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = k_search(&im, &qi, 3, 0);
        assert!(!outcome.stats.heights_probed.is_empty());
        assert!(outcome.stats.nodes_evaluated >= 1);
    }

    #[test]
    fn completed_runs_prove_the_minimal_height() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for ts in 0..=10usize {
            let outcome = k_search(&im, &qi, 3, ts);
            assert_eq!(outcome.termination, Termination::Completed);
            assert_eq!(
                Some(outcome.proven_min_height),
                outcome.node.as_ref().map(Node::height),
                "TS={ts}"
            );
        }
        // Unsatisfiable: the bound walks past the lattice top.
        let outcome = k_search(&im, &qi, 11, 0);
        assert_eq!(outcome.termination, Termination::Completed);
        assert_eq!(outcome.proven_min_height, qi.lattice().height() + 1);
    }

    #[test]
    fn node_budget_interrupts_with_a_sound_bound() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let full = k_search(&im, &qi, 3, 0);
        let minimal_height = full.node.unwrap().height();
        for max_nodes in 0..full.stats.nodes_evaluated as u64 {
            let req = SearchRequest {
                pruning: Pruning::None,
                budget: SearchBudget::unlimited().with_max_nodes(max_nodes),
                ..SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 3, 0)
            };
            let outcome = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
            assert_eq!(outcome.termination, Termination::NodeBudgetExhausted);
            assert!(outcome.stats.nodes_evaluated as u64 <= max_nodes);
            // The bound never overshoots the true answer, and any
            // best-so-far node genuinely satisfies.
            assert!(outcome.proven_min_height <= minimal_height);
            if let Some(masked) = &outcome.masked {
                let keys = masked.schema().key_indices();
                assert!(psens_core::is_k_anonymous(masked, &keys, 3));
            }
        }
    }

    #[test]
    fn cancelled_before_start_returns_cancelled() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let token = psens_core::CancelToken::new();
        token.cancel();
        let req = SearchRequest {
            pruning: Pruning::None,
            budget: SearchBudget::unlimited()
                .with_cancel(token)
                .with_check_interval(1),
            ..SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 3, 0)
        };
        let outcome = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
        assert_eq!(outcome.termination, Termination::Cancelled);
        assert!(outcome.node.is_none());
        assert_eq!(outcome.proven_min_height, 0);
    }

    /// Only the returned node's table is built, however many probes
    /// succeed: here the heights 15 and 14 both hold a satisfier.
    #[test]
    fn materializes_only_the_returned_node() {
        let im = psens_datasets::AdultGenerator::new(3).generate_wide(60);
        let qi = psens_datasets::hierarchies::adult_wide_qi_space();
        let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 3, 10);
        let observer = psens_core::RecordingObserver::new();
        let outcome = pk_minimal_generalization(&im, &qi, &req, &observer).unwrap();
        assert_eq!(outcome.stats.heights_probed, vec![8, 13, 15, 14]);
        let node = outcome.node.expect("satisfiable");
        assert_eq!(node.height(), 14);
        assert_eq!(observer.telemetry().tables_materialized, 1);
        let ctx = psens_core::MaskingContext {
            initial: &im,
            qi: &qi,
            k: 3,
            p: 2,
            ts: 10,
        };
        let expected = ctx.evaluate(&node, &ctx.initial_stats()).unwrap();
        assert_eq!(outcome.masked, Some(expected.masked));
        assert_eq!(outcome.suppressed, expected.suppressed);
    }

    #[test]
    fn benchmark_forwarder_matches_the_request_entry_point() {
        let im = psens_datasets::AdultGenerator::new(19).generate(300);
        let qi = psens_datasets::hierarchies::adult_qi_space();
        let stats = ConfidentialStats::compute(&im, &im.schema().confidential_indices());
        for model in [
            ModelSpec::PSensitiveK { p: 2 },
            ModelSpec::DistinctL { l: 2 },
            ModelSpec::EntropyL { l: 1 },
            ModelSpec::TCloseness { t_ppm: 500_000 },
        ] {
            for pruning in [Pruning::None, Pruning::NecessaryConditions] {
                let tuning = Tuning {
                    threads: 2,
                    ..Tuning::default()
                };
                let budget = SearchBudget::unlimited();
                let forwarded = pk_minimal_generalization_model_with_stats(
                    &im,
                    &qi,
                    model,
                    3,
                    12,
                    pruning,
                    &budget,
                    tuning,
                    &NoopObserver,
                    &stats,
                )
                .unwrap();
                let req = SearchRequest {
                    pruning,
                    tuning,
                    stats: Some(&stats),
                    ..SearchRequest::new(model, 3, 12)
                };
                let direct = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
                assert!(direct.node.is_some(), "{model:?}");
                assert_eq!(
                    format!("{forwarded:?}"),
                    format!("{direct:?}"),
                    "{model:?} {pruning:?}"
                );
            }
        }
    }
}
