//! Cross-validation: every search algorithm must agree with the exhaustive
//! ground truth, and every produced masking must pass an independent check.

use psens::datasets::hierarchies::{adult_qi_space, figure2_qi_space};
use psens::datasets::paper::figure3_microdata;
use psens::datasets::AdultGenerator;
use psens::prelude::*;

/// A p-sensitive k-anonymity request with the default knobs.
fn pk_request(p: u32, k: u32, ts: usize) -> SearchRequest<'static> {
    SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
}

#[test]
fn samarati_height_matches_exhaustive_minimal_height() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    for p in 1..=3u32 {
        for k in [2u32, 3] {
            for ts in [0usize, 2, 5, 10] {
                let exhaustive =
                    exhaustive_scan(&im, &qi, &pk_request(p, k, ts), &NoopObserver).unwrap();
                let samarati =
                    pk_minimal_generalization(&im, &qi, &pk_request(p, k, ts), &NoopObserver)
                        .unwrap();
                match (exhaustive.minimal.first(), &samarati.node) {
                    (Some(truth), Some(found)) => {
                        assert_eq!(
                            truth.height(),
                            found.height(),
                            "p={p} k={k} ts={ts}: heights must agree"
                        );
                        assert!(
                            exhaustive.minimal.contains(found),
                            "p={p} k={k} ts={ts}: {found} must be one of the minimal nodes"
                        );
                    }
                    (None, None) => {}
                    (truth, found) => {
                        panic!("p={p} k={k} ts={ts}: exhaustive={truth:?} samarati={found:?}")
                    }
                }
            }
        }
    }
}

#[test]
fn levelwise_equals_exhaustive_on_adult_sample() {
    let im = AdultGenerator::new(17).generate(250);
    let qi = adult_qi_space();
    for (p, k, ts) in [(1u32, 2u32, 0usize), (1, 3, 25), (2, 2, 25)] {
        let mut a = exhaustive_scan(&im, &qi, &pk_request(p, k, ts), &NoopObserver)
            .unwrap()
            .minimal;
        let mut b = levelwise_minimal(&im, &qi, &pk_request(p, k, ts), &NoopObserver)
            .unwrap()
            .minimal;
        a.sort();
        b.sort();
        assert_eq!(a, b, "p={p} k={k} ts={ts}");
    }
}

#[test]
fn every_algorithm_output_passes_independent_check() {
    let im = AdultGenerator::new(23).generate(400);
    let qi = adult_qi_space();
    let (p, k, ts) = (2u32, 3u32, 20usize);

    let samarati = pk_minimal_generalization(
        &im,
        &qi,
        &SearchRequest {
            pruning: Pruning::None,
            ..pk_request(p, k, ts)
        },
        &NoopObserver,
    )
    .unwrap();
    let masked = samarati.masked.expect("achievable");
    let keys = masked.schema().key_indices();
    let conf = masked.schema().confidential_indices();
    assert!(is_p_sensitive_k_anonymous(&masked, &keys, &conf, p, k));

    let mondrian = mondrian_anonymize(
        &im,
        MondrianConfig { k, p },
        &SearchBudget::unlimited(),
        &NoopObserver,
    )
    .unwrap();
    let keys = mondrian.masked.schema().key_indices();
    let conf = mondrian.masked.schema().confidential_indices();
    assert!(is_p_sensitive_k_anonymous(
        &mondrian.masked,
        &keys,
        &conf,
        p,
        k
    ));
}

#[test]
fn mondrian_dominates_full_domain_on_group_count() {
    // Local recoding refines full-domain recoding: at equal constraints it
    // should keep at least as many QI-groups (more detail), and suppress
    // nothing.
    let im = AdultGenerator::new(29).generate(600);
    let qi = adult_qi_space();
    let (p, k) = (1u32, 5u32);
    let full = pk_minimal_generalization(
        &im,
        &qi,
        &SearchRequest {
            pruning: Pruning::None,
            ..pk_request(p, k, 0)
        },
        &NoopObserver,
    )
    .unwrap();
    let masked = full.masked.expect("achievable");
    let fd_groups = GroupBy::compute(&masked, &masked.schema().key_indices()).n_groups();

    let mondrian = mondrian_anonymize(
        &im,
        MondrianConfig { k, p },
        &SearchBudget::unlimited(),
        &NoopObserver,
    )
    .unwrap();
    assert_eq!(mondrian.masked.n_rows(), im.n_rows(), "no suppression");
    assert!(
        mondrian.partitions.len() >= fd_groups,
        "mondrian {} partitions vs full-domain {fd_groups} groups",
        mondrian.partitions.len()
    );
}

#[test]
fn pruning_never_changes_search_answers() {
    let im = AdultGenerator::new(31).generate(300);
    let qi = adult_qi_space();
    for p in 1..=3u32 {
        for k in [2u32, 4] {
            for ts in [0usize, 15] {
                let a = pk_minimal_generalization(
                    &im,
                    &qi,
                    &SearchRequest {
                        pruning: Pruning::None,
                        ..pk_request(p, k, ts)
                    },
                    &NoopObserver,
                )
                .unwrap();
                let b = pk_minimal_generalization(&im, &qi, &pk_request(p, k, ts), &NoopObserver)
                    .unwrap();
                assert_eq!(
                    a.node.as_ref().map(Node::height),
                    b.node.as_ref().map(Node::height),
                    "p={p} k={k} ts={ts}"
                );
                assert_eq!(a.node.is_some(), b.node.is_some());
            }
        }
    }
}

#[test]
fn deeper_suppression_budgets_never_raise_the_minimal_height() {
    let im = AdultGenerator::new(37).generate(300);
    let qi = adult_qi_space();
    let mut last_height = usize::MAX;
    for ts in [0usize, 10, 30, 100] {
        let outcome =
            pk_minimal_generalization(&im, &qi, &pk_request(1, 3, ts), &NoopObserver).unwrap();
        let height = outcome.node.expect("achievable").height();
        assert!(
            height <= last_height,
            "larger TS must allow equal-or-lower nodes (ts={ts})"
        );
        last_height = height;
    }
}
