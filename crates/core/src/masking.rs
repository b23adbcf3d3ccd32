//! The masking pipeline: generalize to a lattice node, suppress within a
//! threshold, and check the target property — one candidate evaluation inside
//! any lattice-search algorithm.

use crate::checker::{check_improved, empty_release_fails, CheckStage, ImprovedCheckOutcome};
use crate::conditions::ConfidentialStats;
use crate::kanonymity::check_k_anonymity;
use crate::observe::{elapsed_since, start_timer, SearchObserver};
use crate::suppress::suppress_to_k;
use psens_hierarchy::{Node, QiSpace};
use psens_microdata::Table;

/// Errors from the masking pipeline (hierarchy application can fail).
pub type Result<T> = std::result::Result<T, psens_hierarchy::Error>;

/// The masking configuration shared by every candidate-node evaluation:
/// which table to mask, how, and what property to demand.
#[derive(Debug, Clone)]
pub struct MaskingContext<'a> {
    /// The initial microdata (identifiers may still be present; they are
    /// dropped from every masked output).
    pub initial: &'a Table,
    /// The QI space (hierarchies for each key attribute).
    pub qi: &'a QiSpace,
    /// Required group size.
    pub k: u32,
    /// Required sensitivity (use `p = 1` for plain k-anonymity: every
    /// nonempty group trivially has one distinct value).
    pub p: u32,
    /// Suppression threshold TS: the maximum number of tuples that may be
    /// removed after generalization.
    pub ts: usize,
}

/// The outcome of masking at one lattice node.
#[derive(Debug, Clone)]
pub struct MaskOutcome {
    /// The node that was applied.
    pub node: Node,
    /// The masked microdata: generalized, identifier-free and, when the
    /// violation count fit the threshold, suppressed to k-anonymity.
    pub masked: Table,
    /// Number of tuples suppressed (0 when suppression was not applicable).
    pub suppressed: usize,
    /// Tuples violating k-anonymity after generalization alone (Figure 3's
    /// per-node annotation).
    pub violating_tuples: usize,
    /// Whether the masked table satisfies the requested property.
    pub satisfied: bool,
    /// Stage of Algorithm 2 that settled the check.
    pub stage: CheckStage,
    /// QI-group count of the masked table, when Algorithm 2 computed the
    /// grouping (`None` after a Condition 1 rejection).
    pub n_groups: Option<usize>,
}

impl MaskingContext<'_> {
    /// Key-attribute indices of the masked (identifier-free) schema.
    fn masked_keys(&self, masked: &Table) -> Vec<usize> {
        masked.schema().key_indices()
    }

    /// Confidential-attribute indices of the masked schema.
    fn masked_confidential(&self, masked: &Table) -> Vec<usize> {
        masked.schema().confidential_indices()
    }

    /// Evaluates one lattice node end to end:
    /// generalize → (suppress if within TS) → Algorithm 2 check.
    ///
    /// `stats` are the initial-microdata confidential statistics; Theorems 1
    /// and 2 make their reuse sound for every node and threshold.
    pub fn evaluate(&self, node: &Node, stats: &ConfidentialStats) -> Result<MaskOutcome> {
        let generalized = self.qi.apply(self.initial, node)?.drop_identifiers();
        let keys = self.masked_keys(&generalized);
        let report = check_k_anonymity(&generalized, &keys, self.k);
        let (masked, suppressed) =
            if report.violating_tuples > 0 && report.violating_tuples <= self.ts {
                let result = suppress_to_k(&generalized, &keys, self.k);
                (result.table, result.removed)
            } else {
                (generalized, 0)
            };
        let conf = self.masked_confidential(&masked);
        let mut outcome: ImprovedCheckOutcome =
            check_improved(&masked, &keys, &conf, self.p, self.k, stats);
        if outcome.satisfied && empty_release_fails(suppressed, self.initial.n_rows(), self.p) {
            outcome.satisfied = false;
            outcome.stage = CheckStage::KAnonymity;
        }
        Ok(MaskOutcome {
            node: node.clone(),
            masked,
            suppressed,
            violating_tuples: report.violating_tuples,
            satisfied: outcome.satisfied,
            stage: outcome.stage,
            n_groups: outcome.n_groups,
        })
    }

    /// [`Self::evaluate`], reporting the table-materialization cost to
    /// `observer`. With a [`crate::observe::NoopObserver`] this
    /// monomorphizes to exactly [`Self::evaluate`].
    pub fn evaluate_observed<O: SearchObserver>(
        &self,
        node: &Node,
        stats: &ConfidentialStats,
        observer: &O,
    ) -> Result<MaskOutcome> {
        let timer = start_timer::<O>();
        let outcome = self.evaluate(node, stats)?;
        if O::ENABLED {
            observer.table_materialized(elapsed_since(timer));
        }
        Ok(outcome)
    }

    /// Precomputes the confidential statistics of the initial microdata —
    /// compute once, reuse for every node (the paper's key optimization).
    pub fn initial_stats(&self) -> ConfidentialStats {
        ConfidentialStats::compute(self.initial, &self.initial.schema().confidential_indices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_hierarchy::builders::{flat_hierarchy, prefix_hierarchy};
    use psens_hierarchy::Hierarchy;
    use psens_microdata::{table_from_str_rows, Attribute, Schema};

    /// Figure 3's microdata extended with a confidential attribute.
    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_identifier("Name"),
            Attribute::cat_key("Sex"),
            Attribute::cat_key("ZipCode"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["n0", "M", "41076", "Flu"],
                &["n1", "F", "41099", "HIV"],
                &["n2", "M", "41099", "Asthma"],
                &["n3", "M", "41076", "HIV"],
                &["n4", "F", "43102", "Flu"],
                &["n5", "M", "43102", "Asthma"],
                &["n6", "M", "43102", "HIV"],
                &["n7", "F", "43103", "Flu"],
                &["n8", "M", "48202", "Asthma"],
                &["n9", "M", "48201", "Flu"],
            ],
        )
        .unwrap()
    }

    fn qi() -> QiSpace {
        QiSpace::new(vec![
            ("Sex".into(), flat_hierarchy(vec!["M", "F"]).unwrap()),
            (
                "ZipCode".into(),
                Hierarchy::Cat(
                    prefix_hierarchy(
                        vec!["41076", "41099", "43102", "43103", "48201", "48202"],
                        &[2, 0],
                    )
                    .unwrap(),
                ),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn masked_output_has_no_identifiers() {
        let t = table();
        let qi = qi();
        let ctx = MaskingContext {
            initial: &t,
            qi: &qi,
            k: 2,
            p: 1,
            ts: 0,
        };
        let stats = ctx.initial_stats();
        let outcome = ctx.evaluate(&Node(vec![1, 2]), &stats).unwrap();
        assert!(outcome.masked.schema().index_of("Name").is_err());
        assert!(outcome.satisfied);
    }

    #[test]
    fn figure3_violation_counts_surface() {
        let t = table();
        let qi = qi();
        let ctx = MaskingContext {
            initial: &t,
            qi: &qi,
            k: 3,
            p: 1,
            ts: 0,
        };
        let stats = ctx.initial_stats();
        // Figure 3: <S0,Z0> -> 10, <S1,Z0> -> 7, <S0,Z1> -> 7, <S1,Z1> -> 2,
        // <S0,Z2> -> 0, <S1,Z2> -> 0 violating tuples.
        let expect = [
            (Node(vec![0, 0]), 10),
            (Node(vec![1, 0]), 7),
            (Node(vec![0, 1]), 7),
            (Node(vec![1, 1]), 2),
            (Node(vec![0, 2]), 0),
            (Node(vec![1, 2]), 0),
        ];
        for (node, violations) in expect {
            let outcome = ctx.evaluate(&node, &stats).unwrap();
            assert_eq!(
                outcome.violating_tuples, violations,
                "node {node} should have {violations} violating tuples"
            );
        }
    }

    #[test]
    fn suppression_applies_within_threshold() {
        let t = table();
        let qi = qi();
        let ctx = MaskingContext {
            initial: &t,
            qi: &qi,
            k: 3,
            p: 1,
            ts: 2,
        };
        let stats = ctx.initial_stats();
        // <S1,Z1> has 2 violating tuples <= TS = 2: suppression kicks in.
        let outcome = ctx.evaluate(&Node(vec![1, 1]), &stats).unwrap();
        assert_eq!(outcome.suppressed, 2);
        assert_eq!(outcome.masked.n_rows(), 8);
        assert!(outcome.satisfied);
        // <S1,Z0> has 7 violating tuples > TS: no suppression, not satisfied.
        let outcome = ctx.evaluate(&Node(vec![1, 0]), &stats).unwrap();
        assert_eq!(outcome.suppressed, 0);
        assert!(!outcome.satisfied);
        assert_eq!(outcome.stage, CheckStage::KAnonymity);
    }

    #[test]
    fn fully_suppressed_release_passes_only_plain_k_anonymity() {
        let t = table();
        let qi = qi();
        // <S0,Z0>: all ten tuples sit in groups smaller than 3, and TS = 10
        // lets suppression remove every one of them.
        for (p, satisfied) in [(1u32, true), (2, false)] {
            let ctx = MaskingContext {
                initial: &t,
                qi: &qi,
                k: 3,
                p,
                ts: 10,
            };
            let outcome = ctx
                .evaluate(&Node(vec![0, 0]), &ctx.initial_stats())
                .unwrap();
            assert_eq!(outcome.suppressed, 10);
            assert_eq!(outcome.masked.n_rows(), 0);
            assert_eq!(outcome.satisfied, satisfied, "p = {p}");
            let stage = if satisfied {
                CheckStage::Passed
            } else {
                CheckStage::KAnonymity
            };
            assert_eq!(outcome.stage, stage, "p = {p}");
        }
    }

    #[test]
    fn p_sensitivity_enforced_by_pipeline() {
        let t = table();
        let qi = qi();
        // At <S1,Z2> everything is one group with 3 distinct illnesses:
        // satisfies p up to 3.
        for (p, expect) in [(1u32, true), (3, true), (4, false)] {
            let ctx = MaskingContext {
                initial: &t,
                qi: &qi,
                k: 2,
                p,
                ts: 0,
            };
            let stats = ctx.initial_stats();
            let outcome = ctx.evaluate(&Node(vec![1, 2]), &stats).unwrap();
            assert_eq!(outcome.satisfied, expect, "p = {p}");
        }
    }
}
