//! Cross-model differential suite: the reductions every pluggable model
//! must honor.
//!
//! - `psens-k` with p = 1 **is** plain k-anonymity. The trait-driven search
//!   must reproduce `k_minimal_generalization`'s winner byte for byte —
//!   same node, same suppression count, same proven height bound, same
//!   released table — on the Adult space and the wide 8-QI Adult space,
//!   for proptest-chosen (seed, k, TS).
//! - `distinct-l` with l = 1 demands one distinct value per group, which
//!   every non-empty group has: it reduces to the same k-grouping truth.
//! - Node for node, the three reduced models return identical
//!   [`NodeCheck`] records (stage classification included) across whole
//!   lattices, not just at winners.

use proptest::prelude::*;
use psens::algorithms::{pk_minimal_generalization, SearchOutcome, SearchRequest};
use psens::core::{EvalContext, ModelSpec, NodeCheck, NoopObserver};
use psens::datasets::hierarchies::{adult_qi_space, adult_wide_qi_space};
use psens::datasets::AdultGenerator;
use psens::hierarchy::QiSpace;
use psens::prelude::*;

/// The serial, trait-driven search for `spec` with everything else fixed.
fn search_model(table: &Table, qi: &QiSpace, spec: ModelSpec, k: u32, ts: usize) -> SearchOutcome {
    pk_minimal_generalization(table, qi, &SearchRequest::new(spec, k, ts), &NoopObserver).unwrap()
}

/// Asserts the p = 1 / l = 1 reductions against the plain k-anonymity
/// search on one (table, space, k, ts) configuration.
fn assert_reductions_match_k_anonymity(
    table: &Table,
    qi: &QiSpace,
    k: u32,
    ts: usize,
) -> Result<(), TestCaseError> {
    let k_only = pk_minimal_generalization(
        table,
        qi,
        &SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, k, ts),
        &NoopObserver,
    )
    .unwrap();
    for spec in [
        ModelSpec::PSensitiveK { p: 1 },
        ModelSpec::DistinctL { l: 1 },
    ] {
        let run = search_model(table, qi, spec, k, ts);
        let setting = format!("{} k={k} ts={ts}", spec.describe());
        prop_assert_eq!(&run.node, &k_only.node, "winner node: {}", &setting);
        prop_assert_eq!(
            run.suppressed,
            k_only.suppressed,
            "suppressed: {}",
            &setting
        );
        prop_assert_eq!(
            run.proven_min_height,
            k_only.proven_min_height,
            "proven height bound: {}",
            &setting
        );
        prop_assert_eq!(
            &run.masked,
            &k_only.masked,
            "released table bytes: {}",
            &setting
        );
    }
    Ok(())
}

/// Per-node verdicts for `spec` across every lattice node, via the same
/// evaluator the searches use.
fn all_node_checks(
    table: &Table,
    qi: &QiSpace,
    spec: ModelSpec,
    k: u32,
    ts: usize,
) -> Vec<NodeCheck> {
    let ctx = MaskingContext {
        initial: table,
        qi,
        k,
        p: spec.conditions_p(),
        ts,
    };
    let ectx = EvalContext::build(&ctx).unwrap().with_model(spec);
    let stats = ConfidentialStats::compute(table, &table.schema().confidential_indices());
    let mut evaluator = ectx.evaluator();
    qi.lattice()
        .all_nodes()
        .into_iter()
        .map(|node| evaluator.check(&node, &stats).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// p = 1 (and l = 1) winners equal the plain k-anonymity search on the
    /// 4-QI Adult space.
    #[test]
    fn p1_reduction_holds_on_adult(
        seed in 0u64..1000,
        k in 1u32..5,
        ts in 0usize..12,
    ) {
        let table = AdultGenerator::new(seed).generate(120);
        assert_reductions_match_k_anonymity(&table, &adult_qi_space(), k, ts)?;
    }

    /// The same reduction on the wide 8-QI Adult space, whose much larger
    /// lattice exercises the binary search's height probing.
    #[test]
    fn p1_reduction_holds_on_wide_adult(
        seed in 0u64..1000,
        k in 1u32..4,
        ts in 0usize..8,
    ) {
        let table = AdultGenerator::new(seed).generate_wide(90);
        assert_reductions_match_k_anonymity(&table, &adult_wide_qi_space(), k, ts)?;
    }

    /// Every lattice node — not just winners — gets a byte-identical
    /// verdict record from psens-k p=1 and distinct-l l=1, including the
    /// Algorithm 2 stage that settled it.
    #[test]
    fn p1_reduction_holds_node_for_node(
        seed in 0u64..1000,
        k in 1u32..5,
        ts in 0usize..12,
    ) {
        let table = AdultGenerator::new(seed).generate(120);
        let qi = adult_qi_space();
        let psens = all_node_checks(&table, &qi, ModelSpec::PSensitiveK { p: 1 }, k, ts);
        let distinct = all_node_checks(&table, &qi, ModelSpec::DistinctL { l: 1 }, k, ts);
        prop_assert_eq!(psens, distinct, "k={} ts={}", k, ts);
    }
}

/// l = 1 against groups that exist: any 1-anonymous grouping is 1-diverse,
/// so the distinct-l l=1 verdict at the lattice bottom equals the raw
/// k-grouping truth computed independently.
#[test]
fn l1_bottom_verdict_equals_raw_k_grouping_truth() {
    for (seed, k) in [(3u64, 2u32), (9, 3), (21, 4)] {
        let table = AdultGenerator::new(seed).generate(150);
        let qi = adult_qi_space();
        let checks = all_node_checks(&table, &qi, ModelSpec::DistinctL { l: 1 }, k, 0);
        let bottom = checks
            .iter()
            .find(|c| c.node == qi.lattice().bottom())
            .expect("bottom node is in the lattice");
        let keys = table.schema().key_indices();
        assert_eq!(
            bottom.satisfied,
            is_k_anonymous(&table, &keys, k),
            "seed {seed} k {k}"
        );
    }
}
