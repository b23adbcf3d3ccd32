//! Interplay between the disclosure-control toolbox, the risk metrics, and
//! the p-sensitive k-anonymity core: the pieces must compose the way a data
//! holder would actually use them.

use psens::datasets::AdultGenerator;
use psens::methods::{
    microaggregate_univariate, pram, rank_swap, simple_random_sample, PramMatrix,
};
use psens::metrics::{identity_risk, journalist_risk};
use psens::prelude::*;

#[test]
fn three_local_recoders_ranked_by_group_count() {
    // Full-domain generalization is never finer than Mondrian.
    let im = AdultGenerator::new(72).generate(500);
    let qi = psens::datasets::hierarchies::adult_qi_space();
    let (k, p) = (4u32, 2u32);

    let req = SearchRequest::new(ModelSpec::PSensitiveK { p }, k, 25);
    let full = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
    let fd = full.masked.unwrap();
    let fd_groups = GroupBy::compute(&fd, &fd.schema().key_indices()).n_groups();

    let mondrian = mondrian_anonymize(
        &im,
        MondrianConfig { k, p },
        &SearchBudget::unlimited(),
        &NoopObserver,
    )
    .unwrap();

    assert!(mondrian.partitions.len() >= fd_groups);
}

#[test]
fn sampling_lowers_journalist_risk_estimates() {
    let population = AdultGenerator::new(73).generate(3000).drop_identifiers();
    let released = simple_random_sample(&population, 300, 5);
    let keys = ["Age", "MaritalStatus", "Race", "Sex"];
    let journalist = journalist_risk(&released, &population, &keys)
        .unwrap()
        .expect("nonempty");
    let prosecutor = identity_risk(&released, &released.schema().key_indices());
    // The journalist (population) denominator dominates the sample one.
    assert!(journalist.avg_risk <= prosecutor.avg_risk + 1e-12);
    assert!(journalist.population_uniques <= prosecutor.uniques + released.n_rows());
}

#[test]
fn microaggregation_then_generalization_composes() {
    // A holder can microaggregate Age first (blunting exact ages) and then
    // run the lattice search; the pipeline still reaches the property.
    let im = AdultGenerator::new(74).generate(400);
    let age = im.schema().index_of("Age").unwrap();
    let pre = microaggregate_univariate(&im, age, 5).unwrap();
    let qi = psens::datasets::hierarchies::adult_qi_space();
    let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 3, 20);
    let outcome = pk_minimal_generalization(&pre, &qi, &req, &NoopObserver).unwrap();
    let masked = outcome.masked.expect("achievable");
    let keys = masked.schema().key_indices();
    let conf = masked.schema().confidential_indices();
    assert!(is_p_sensitive_k_anonymous(&masked, &keys, &conf, 2, 3));
}

#[test]
fn pram_on_confidential_attribute_preserves_key_structure() {
    let im = AdultGenerator::new(75).generate(500).drop_identifiers();
    let pay = im.schema().index_of("Pay").unwrap();
    let matrix = PramMatrix::uniform_retention(vec!["<=50K", ">50K"], 0.8).unwrap();
    let released = pram(&im, pay, &matrix, 6).unwrap();
    // Key attributes untouched: identical grouping structure.
    let keys = im.schema().key_indices();
    let before = GroupBy::compute(&im, &keys);
    let after = GroupBy::compute(&released, &keys);
    assert_eq!(before.n_groups(), after.n_groups());
    assert_eq!(before.sizes(), after.sizes());
}

#[test]
fn swapping_a_key_attribute_changes_groups_but_not_marginals() {
    let im = AdultGenerator::new(76).generate(500).drop_identifiers();
    let age = im.schema().index_of("Age").unwrap();
    let swapped = rank_swap(&im, age, 10, 7).unwrap();
    let mut before: Vec<i64> = (0..im.n_rows())
        .map(|r| im.value(r, age).as_int().unwrap())
        .collect();
    let mut after: Vec<i64> = (0..swapped.n_rows())
        .map(|r| swapped.value(r, age).as_int().unwrap())
        .collect();
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after, "marginal preserved exactly");
    assert_ne!(im, swapped, "records perturbed");
}

#[test]
fn describe_profile_matches_condition_inputs() {
    let im = AdultGenerator::new(77).generate(300);
    let summaries = psens::microdata::describe(&im);
    let pay_summary = summaries.iter().find(|s| s.name == "Pay").unwrap();
    let conf = im.schema().confidential_indices();
    let stats = ConfidentialStats::compute(&im, &conf);
    let pay_stats = stats
        .per_attribute
        .iter()
        .find(|a| a.name == "Pay")
        .unwrap();
    assert_eq!(pay_summary.distinct, pay_stats.s);
    assert_eq!(pay_summary.top.as_ref().unwrap().1, pay_stats.descending[0]);
}
