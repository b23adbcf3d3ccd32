//! Incognito: full-domain k-anonymity via subset-lattice pruning
//! (LeFevre, DeWitt & Ramakrishnan, SIGMOD 2005 — the paper's reference
//! [12]), extended here to p-sensitive k-anonymity at the final stage.
//!
//! Incognito's insight is *subset monotonicity*: if a full-domain
//! generalization is k-anonymous with respect to the quasi-identifier set
//! `Q`, it is k-anonymous with respect to every subset of `Q` (coarser
//! groupings only merge groups). The algorithm therefore works Apriori-
//! style: it finds the k-anonymous generalizations of every 1-attribute
//! subset, joins them into candidates for 2-attribute subsets, and so on —
//! pruning a candidate as soon as any projection failed. Within one subset's
//! lattice it walks bottom-up with **rollup**: once a node passes, all its
//! ancestors pass without evaluation.
//!
//! Subset pruning uses plain k-anonymity (with the suppression budget); the
//! p-sensitivity requirement is checked only on the full QI set, through the
//! code-mapped evaluation kernel. p-sensitivity is itself
//! subset-monotone, but k-based pruning is what the original algorithm
//! specifies and is sound for the combined property (a node failing
//! k-anonymity on a subset cannot satisfy p-sensitive k-anonymity on the
//! full set).

use crate::request::{SearchRequest, Setup};
use psens_core::{SearchObserver, Termination};
use psens_hierarchy::{Node, QiCodeMaps, QiSpace};
use psens_microdata::hash::{FxHashMap, FxHashSet};
use psens_microdata::{CodeCombiner, Table};
use serde::Serialize;
use std::ops::ControlFlow;

/// Work counters for the Incognito run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct IncognitoStats {
    /// Subset-lattice nodes whose frequency set was actually computed,
    /// indexed by subset size (entry 0 = 1-attribute subsets).
    pub evaluated_by_size: Vec<usize>,
    /// Candidates rejected by the Apriori join (a projection already
    /// failed) without any evaluation.
    pub pruned_apriori: usize,
    /// Nodes accepted by rollup (an evaluated descendant passed) without
    /// any evaluation.
    pub pruned_rollup: usize,
    /// Full-QI nodes that passed k-anonymity but failed p-sensitivity.
    pub failed_sensitivity: usize,
}

/// Result of an Incognito run.
#[derive(Debug, Clone)]
pub struct IncognitoOutcome {
    /// All p-k-minimal generalizations over the full QI set. Complete
    /// exactly when `termination` is [`Termination::Completed`]. When the
    /// budget trips during the final confirmation stage, each listed node is
    /// a genuine p-sensitive k-anonymous generalization (not necessarily
    /// minimal); when it trips during subset pruning, the list is empty.
    pub minimal: Vec<Node>,
    /// Work counters.
    pub stats: IncognitoStats,
    /// How the search ended.
    pub termination: Termination,
}

/// Key for one subset node: the levels of the attributes in the subset, in
/// ascending attribute order.
type SubsetNode = Vec<u8>;

/// Runs Incognito over the table's QI space.
///
/// Finds **all** minimal full-domain generalizations satisfying
/// `req.model`, like [`crate::levelwise::levelwise_minimal`], but prunes
/// through attribute subsets first — on wide QI sets this evaluates far
/// fewer frequency sets. Subset pruning stays pure k-anonymity (sound for
/// any model that requires k-anonymity); the model is checked only at the
/// full-QI confirmation stage.
///
/// Each subset frequency-set evaluation and each full-QI confirmation check
/// draws one node from `req.budget`. Only the confirmation stage reports to
/// `observer` and consults `req.tuning.cache` (inferred verdicts accepted —
/// only the satisfaction boolean matters here): the subset-pruning phase
/// works on projected frequency sets, which the full-lattice store cannot
/// describe and [`IncognitoStats`] tallies instead. `req.tuning.threads` is
/// ignored (the subset walk is inherently sequential through `passing`).
pub fn incognito_minimal<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    req: &SearchRequest<'_>,
    observer: &O,
) -> Result<IncognitoOutcome, psens_hierarchy::Error> {
    let (k, ts) = (req.k, req.ts);
    let m = qi.len();
    assert!(m <= 16, "QI sets wider than 16 attributes are unsupported");
    let mut stats = IncognitoStats {
        evaluated_by_size: vec![0; m],
        ..Default::default()
    };

    // Per-(attribute, level) code maps, cached once: every subset frequency
    // set is then a pure u32 combine over them — no recoded columns, no
    // temporary tables.
    let max_levels: Vec<usize> = (0..m).map(|i| qi.hierarchy(i).max_level()).collect();
    let maps = qi.code_maps(initial)?;
    let mut scratch = SubsetScratch::default();

    // passing[mask] = set of subset nodes that are k-anonymous (within ts)
    // w.r.t. the attributes of `mask`.
    let mut passing: FxHashMap<u16, FxHashSet<SubsetNode>> = FxHashMap::default();
    let state = req.budget.start();

    'subsets: for mask in 1u16..(1 << m) {
        let members: Vec<usize> = (0..m).filter(|&i| mask & (1 << i) != 0).collect();
        let size = members.len();
        let mut passed: FxHashSet<SubsetNode> = FxHashSet::default();
        // Enumerate this subset's lattice bottom-up by height.
        let dims: Vec<u8> = members.iter().map(|&i| max_levels[i] as u8).collect();
        let lattice = psens_hierarchy::Lattice::new(dims);
        for node in lattice.all_nodes() {
            let levels: SubsetNode = node.levels().to_vec();
            // Apriori: every (size-1)-projection must have passed.
            if size > 1 {
                let prunable = members.iter().enumerate().any(|(pos, &attr)| {
                    let sub_mask = mask & !(1 << attr);
                    let mut projection = levels.clone();
                    projection.remove(pos);
                    !passing[&sub_mask].contains(&projection)
                });
                if prunable {
                    stats.pruned_apriori += 1;
                    continue;
                }
            }
            // Rollup: a passing child implies this node passes.
            let rolled_up = lattice
                .children(&node)
                .iter()
                .any(|child| passed.contains(child.levels()));
            if rolled_up {
                stats.pruned_rollup += 1;
                passed.insert(levels);
                continue;
            }
            // Evaluate: frequency set over the mapped subset codes. Each
            // one draws a node from the budget — it is the same order of
            // work as a kernel node check.
            if state.admit().is_err() {
                break 'subsets;
            }
            stats.evaluated_by_size[size - 1] += 1;
            if scratch.is_anonymous(&members, &levels, &maps, k, ts) {
                passed.insert(levels);
            }
        }
        passing.insert(mask, passed);
    }

    // Full-QI survivors: confirm the model's group property on the
    // materialized masking.
    let full_mask = (1u16 << m) - 1;
    let setup = Setup::new(initial, qi, req);
    let ectx = setup.eval_context(observer)?;
    let mut eval = ectx.evaluator();
    let mut satisfying: Vec<Node> = Vec::new();
    // `full_mask` is the last subset processed; it is absent exactly when
    // the budget tripped during subset pruning — nothing to confirm then.
    let mut survivors: Vec<&SubsetNode> = passing
        .get(&full_mask)
        .map(|set| set.iter().collect())
        .unwrap_or_default();
    survivors.sort();
    for levels in survivors {
        let node = Node(levels.clone());
        match eval.check_cached(
            &node,
            &setup.check_stats,
            &state,
            req.tuning.cache,
            true,
            observer,
        )? {
            ControlFlow::Break(_) => break,
            ControlFlow::Continue(cc) => {
                if cc.satisfied {
                    satisfying.push(node);
                } else {
                    // Survivors already pass subset k-anonymity, so an
                    // unsatisfied verdict here — fresh or replayed — means
                    // the p-sensitivity stage rejected the masking.
                    stats.failed_sensitivity += 1;
                }
            }
        }
    }
    let minimal = setup.lattice.minimal_elements(&satisfying);
    Ok(IncognitoOutcome {
        minimal,
        stats,
        termination: state.termination(),
    })
}

/// Caller-owned scratch for subset checks, reused across the thousands of
/// subset nodes a run visits.
#[derive(Default)]
struct SubsetScratch {
    combiner: CodeCombiner,
    /// `current[r]`: row r's group id under the subset being checked.
    current: Vec<u32>,
    /// Group sizes, indexed by group id.
    sizes: Vec<u32>,
}

impl SubsetScratch {
    /// Is the projection of the masking onto `members` (at `levels`)
    /// k-anonymous after suppressing at most `ts` tuples?
    ///
    /// Pure code work: refine the row partition with each member's level
    /// map, then count rows in undersized groups.
    fn is_anonymous(
        &mut self,
        members: &[usize],
        levels: &[u8],
        maps: &QiCodeMaps,
        k: u32,
        ts: usize,
    ) -> bool {
        let n = maps.n_rows();
        self.current.clear();
        self.current.resize(n, 0);
        let mut n_groups = u32::from(n > 0);
        for (&attr, &level) in members.iter().zip(levels) {
            let am = maps.attr(attr);
            let lm = am.level(level as usize);
            n_groups = self.combiner.refine_mapped(
                &mut self.current,
                n_groups,
                am.base(),
                lm.map(),
                lm.n_codes(),
            );
        }
        self.sizes.clear();
        self.sizes.resize(n_groups as usize, 0);
        for &g in &self.current {
            self.sizes[g as usize] += 1;
        }
        let violating: usize = self
            .sizes
            .iter()
            .filter(|&&s| s < k)
            .map(|&s| s as usize)
            .sum();
        violating <= ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive_scan;
    use psens_core::masking::MaskingContext;
    use psens_core::{ModelSpec, NoopObserver, SearchBudget};

    fn request(p: u32, k: u32, ts: usize) -> SearchRequest<'static> {
        SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
    }

    fn incognito(im: &Table, qi: &QiSpace, p: u32, k: u32, ts: usize) -> IncognitoOutcome {
        incognito_minimal(im, qi, &request(p, k, ts), &NoopObserver).unwrap()
    }
    use psens_datasets::hierarchies::{adult_qi_space, figure2_qi_space};
    use psens_datasets::paper::figure3_microdata;
    use psens_datasets::AdultGenerator;

    #[test]
    fn matches_exhaustive_on_table4() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for ts in 0..=10usize {
            let mut truth = exhaustive_scan(&im, &qi, &request(1, 3, ts), &NoopObserver)
                .unwrap()
                .minimal;
            let mut ours = incognito(&im, &qi, 1, 3, ts).minimal;
            truth.sort();
            ours.sort();
            assert_eq!(truth, ours, "TS = {ts}");
        }
    }

    #[test]
    fn matches_exhaustive_with_p_sensitivity() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for p in 1..=3u32 {
            let mut truth = exhaustive_scan(&im, &qi, &request(p, 2, 2), &NoopObserver)
                .unwrap()
                .minimal;
            let mut ours = incognito(&im, &qi, p, 2, 2).minimal;
            truth.sort();
            ours.sort();
            assert_eq!(truth, ours, "p = {p}");
        }
    }

    #[test]
    fn matches_exhaustive_on_adult_sample() {
        let im = AdultGenerator::new(41).generate(250);
        let qi = adult_qi_space();
        for (p, k, ts) in [(1u32, 2u32, 0usize), (2, 2, 12)] {
            let mut truth = exhaustive_scan(&im, &qi, &request(p, k, ts), &NoopObserver)
                .unwrap()
                .minimal;
            let mut ours = incognito(&im, &qi, p, k, ts).minimal;
            truth.sort();
            ours.sort();
            assert_eq!(truth, ours, "p={p} k={k} ts={ts}");
        }
    }

    #[test]
    fn pruning_counters_are_active() {
        let im = AdultGenerator::new(43).generate(300);
        let qi = adult_qi_space();
        let outcome = incognito(&im, &qi, 1, 3, 0);
        assert!(outcome.stats.pruned_apriori > 0, "{:?}", outcome.stats);
        assert!(outcome.stats.pruned_rollup > 0, "{:?}", outcome.stats);
        // The full-QI stratum must evaluate fewer nodes than the lattice has.
        assert!(outcome.stats.evaluated_by_size[3] < 96);
    }

    #[test]
    fn unsatisfiable_instances_return_empty() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = incognito(&im, &qi, 1, 11, 0);
        assert!(outcome.minimal.is_empty());
        assert_eq!(outcome.termination, Termination::Completed);
    }

    #[test]
    fn node_budget_interrupts_soundly() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let keys = im.schema().key_indices();
        let conf = im.schema().confidential_indices();
        let full = incognito(&im, &qi, 2, 2, 2);
        assert_eq!(full.termination, Termination::Completed);
        let evaluated: u64 = full.stats.evaluated_by_size.iter().sum::<usize>() as u64
            + full.minimal.len() as u64
            + full.stats.failed_sensitivity as u64;
        for max_nodes in 0..evaluated {
            let req = SearchRequest {
                budget: SearchBudget::unlimited().with_max_nodes(max_nodes),
                ..request(2, 2, 2)
            };
            let outcome = incognito_minimal(&im, &qi, &req, &NoopObserver).unwrap();
            assert_eq!(outcome.termination, Termination::NodeBudgetExhausted);
            // Anytime guarantee: anything reported satisfies the property.
            let ctx = MaskingContext {
                initial: &im,
                qi: &qi,
                k: 2,
                p: 2,
                ts: 2,
            };
            let im_stats = ctx.initial_stats();
            for node in &outcome.minimal {
                let masked = ctx.evaluate(node, &im_stats).unwrap().masked;
                assert!(
                    psens_core::is_p_sensitive_k_anonymous(&masked, &keys, &conf, 2, 2),
                    "budget {max_nodes}: {node}"
                );
            }
        }
    }
}
