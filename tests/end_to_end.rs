//! Full-pipeline scenarios on synthetic Adult data: generate → anonymize →
//! independently verify → attack.

use psens::core::attack::linkage_attack;
use psens::datasets::hierarchies::adult_qi_space;
use psens::datasets::AdultGenerator;
use psens::metrics::{attribute_risk, identity_risk, precision};
use psens::microdata::csv;
use psens::prelude::*;

/// A p-sensitive k-anonymity request with the default knobs.
fn pk_request(p: u32, k: u32, ts: usize) -> SearchRequest<'static> {
    SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
}

#[test]
fn masked_release_resists_the_linkage_attack_when_p_is_2() {
    let im = AdultGenerator::new(99).generate(500);
    let qi = adult_qi_space();
    let outcome = pk_minimal_generalization(&im, &qi, &pk_request(2, 2, 0), &NoopObserver).unwrap();
    let node = outcome.node.expect("achievable");
    let masked = outcome.masked.unwrap();

    // The intruder's external knowledge: identifiers + raw key attributes of
    // everyone in the initial microdata.
    let external = im
        .project_names(&["Id", "Age", "MaritalStatus", "Race", "Sex"])
        .unwrap();
    let findings = linkage_attack(&masked, &qi, &node, &external, "Id").unwrap();
    // Nobody is re-identified and nobody's confidential attribute is learned
    // with certainty: every candidate set has >= 2 members and >= 2 distinct
    // values of every confidential attribute.
    for f in &findings {
        assert!(!f.identity_disclosed, "{:?}", f.individual);
        assert!(
            f.learned.is_empty(),
            "{:?} leaks {:?}",
            f.individual,
            f.learned
        );
    }
}

#[test]
fn k_only_release_is_attackable_p_release_is_not() {
    let im = AdultGenerator::new(77).generate(400);
    let qi = adult_qi_space();
    let external = im
        .project_names(&["Id", "Age", "MaritalStatus", "Race", "Sex"])
        .unwrap();

    let k_only = pk_minimal_generalization(&im, &qi, &pk_request(1, 2, 0), &NoopObserver).unwrap();
    let k_node = k_only.node.unwrap();
    let k_masked = k_only.masked.unwrap();
    let k_findings = linkage_attack(&k_masked, &qi, &k_node, &external, "Id").unwrap();
    let k_leaks: usize = k_findings.iter().map(|f| f.learned.len()).sum();

    let p_sens = pk_minimal_generalization(&im, &qi, &pk_request(2, 2, 0), &NoopObserver).unwrap();
    let p_node = p_sens.node.unwrap();
    let p_masked = p_sens.masked.unwrap();
    let p_findings = linkage_attack(&p_masked, &qi, &p_node, &external, "Id").unwrap();
    let p_leaks: usize = p_findings.iter().map(|f| f.learned.len()).sum();

    assert!(k_leaks > 0, "k-anonymity alone must leak on this sample");
    assert_eq!(p_leaks, 0, "2-sensitivity must stop certain inference");
}

#[test]
fn privacy_utility_tradeoff_is_monotone_in_k() {
    let im = AdultGenerator::new(55).generate(600);
    let qi = adult_qi_space();
    let mut last_height = 0usize;
    for k in [2u32, 5, 10, 25] {
        let outcome =
            pk_minimal_generalization(&im, &qi, &pk_request(1, k, 30), &NoopObserver).unwrap();
        let node = outcome.node.expect("achievable with suppression");
        let masked = outcome.masked.unwrap();
        let keys = masked.schema().key_indices();
        // Stricter k never allows a lower minimal node...
        assert!(node.height() >= last_height, "height grows with k");
        // ...precision is genuinely lost somewhere along the way...
        assert!(precision(&node, &qi.lattice()) < 1.0);
        // ...and the paper's guarantee holds: linkage succeeds with
        // probability at most 1/k.
        let risk = identity_risk(&masked, &keys).max_risk;
        assert!(risk <= 1.0 / f64::from(k) + 1e-12, "risk bounded by 1/k");
        last_height = node.height();
    }
}

#[test]
fn csv_export_of_masked_release_reimports_identically() {
    let im = AdultGenerator::new(11).generate(300);
    let qi = adult_qi_space();
    let outcome =
        pk_minimal_generalization(&im, &qi, &pk_request(2, 3, 10), &NoopObserver).unwrap();
    let masked = outcome.masked.expect("achievable");
    let text = csv::to_csv_string(&masked, true);
    let back = csv::read_table_str(&text, masked.schema().clone(), true).unwrap();
    assert_eq!(back, masked);
}

#[test]
fn attribute_risk_report_is_consistent_with_checker() {
    let im = AdultGenerator::new(13).generate(500);
    let qi = adult_qi_space();
    let outcome = pk_minimal_generalization(&im, &qi, &pk_request(1, 2, 0), &NoopObserver).unwrap();
    let masked = outcome.masked.unwrap();
    let keys = masked.schema().key_indices();
    let conf = masked.schema().confidential_indices();
    let risk = attribute_risk(&masked, &keys, &conf);
    let report = psens::core::check_p_sensitivity(&masked, &keys, &conf, 2, 2);
    // 2-sensitivity violations are exactly the attribute disclosures.
    assert_eq!(risk.disclosures, report.violations.len());
    let per_attr_total: usize = risk.per_attribute.iter().map(|(_, c)| c).sum();
    assert_eq!(per_attr_total, risk.disclosures);
}
