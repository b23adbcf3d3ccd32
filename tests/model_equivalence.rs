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
//! - Under every model, a [`VerdictStore`] fed the kernel's checks never
//!   holds a verdict the kernel contradicts: closure inferences must hold
//!   for entropy l-diversity and t-closeness as much as for the
//!   distinct-count models.

use proptest::prelude::*;
use psens::algorithms::{pk_minimal_generalization, SearchOutcome, SearchRequest};
use psens::core::{EvalContext, ModelSpec, NodeCheck, NoopObserver, VerdictStore};
use psens::datasets::hierarchies::{adult_qi_space, adult_wide_qi_space};
use psens::datasets::AdultGenerator;
use psens::hierarchy::QiSpace;
use psens::prelude::*;
use psens_testkit::spaces::search_qi_space;
use psens_testkit::tables::{arb_wide_row, build_wide_table};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// Records the kernel's checks of a random subset of lattice nodes, then
    /// holds every stored verdict, exact or inferred, against a fresh kernel
    /// check of its node.
    #[test]
    fn stored_verdicts_never_contradict_the_kernel(
        rows in prop::collection::vec(arb_wide_row(2), 1..40),
        (family, param) in (0u8..4, 1u32..4),
        k in 1u32..5,
        ts in 0usize..6,
        recorded in 0u64..u64::MAX,
    ) {
        let table = build_wide_table(&rows);
        let qi = search_qi_space();
        let spec = model_of(family, param);
        let ctx = MaskingContext {
            initial: &table,
            qi: &qi,
            k,
            p: spec.conditions_p(),
            ts,
        };
        let stats = ctx.initial_stats();
        let ectx = EvalContext::build(&ctx).unwrap().with_model(spec);
        let mut evaluator = ectx.evaluator();
        let store = VerdictStore::new(&qi.lattice(), ts);
        for (ix, node) in qi.lattice().all_nodes().into_iter().enumerate() {
            if recorded >> (ix % 64) & 1 == 1 {
                store.record(&evaluator.check(&node, &stats).unwrap());
            }
        }
        for (node, verdict) in store.snapshot_entries() {
            let fresh = evaluator.check(&node, &stats).unwrap();
            prop_assert_eq!(
                verdict.satisfied(),
                fresh.satisfied,
                "{} k={} ts={} node={}",
                spec.describe(),
                k,
                ts,
                node
            );
        }
    }
}
