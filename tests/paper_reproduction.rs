//! End-to-end assertions for every table and figure of the paper — the
//! integration-level "golden" suite (EXPERIMENTS.md is its narrative twin).

use psens::core::conditions::{ConfidentialStats, MaxGroups};
use psens::core::{attribute_disclosure_count, max_k, max_p_of_masked};
use psens::datasets::hierarchies::{adult_qi_space, figure2_qi_space};
use psens::datasets::paper::*;
use psens::prelude::*;

/// A p-sensitive k-anonymity request with the default knobs.
fn pk_request(p: u32, k: u32, ts: usize) -> SearchRequest<'static> {
    SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
}

#[test]
fn table1_is_2_anonymous_with_one_attribute_disclosure() {
    let mm = table1_patients();
    let keys = mm.schema().key_indices();
    let conf = mm.schema().confidential_indices();
    assert_eq!(max_k(&mm, &keys), 2);
    assert_eq!(attribute_disclosure_count(&mm, &keys, &conf), 1);
    // Identity disclosure is impossible (no singleton groups) — "there is no
    // identity disclosure in this microdata".
    assert_eq!(
        psens::core::disclosure::identity_disclosure_count(&mm, &keys),
        0
    );
}

#[test]
fn table2_attack_discloses_sam_and_eric() {
    use psens::core::attack::linkage_attack;
    use psens::hierarchy::{Hierarchy, IntHierarchy, IntLevel};

    let cuts: Vec<i64> = (1..=9).map(|d| d * 10).collect();
    let mut labels: Vec<String> = vec!["0".into()];
    labels.extend(cuts.iter().map(|c| c.to_string()));
    let qi = QiSpace::new(vec![
        (
            "Age".into(),
            Hierarchy::Int(IntHierarchy::new(vec![IntLevel::Ranges { cuts, labels }]).unwrap()),
        ),
        (
            "ZipCode".into(),
            builders::flat_hierarchy(vec!["43102"]).unwrap(),
        ),
        (
            "Sex".into(),
            builders::flat_hierarchy(vec!["M", "F"]).unwrap(),
        ),
    ])
    .unwrap();
    let findings = linkage_attack(
        &table1_patients(),
        &qi,
        &Node(vec![1, 0, 0]),
        &table2_external(),
        "Name",
    )
    .unwrap();
    // Nobody is re-identified (2-anonymity holds)...
    assert!(findings.iter().all(|f| !f.identity_disclosed));
    // ...but exactly Sam and Eric lose their diagnosis.
    let leaked: Vec<String> = findings
        .iter()
        .filter(|f| !f.learned.is_empty())
        .map(|f| f.individual.to_string())
        .collect();
    assert_eq!(leaked, vec!["Sam", "Eric"]);
}

#[test]
fn table3_walkthrough_values() {
    let mm = table3_psensitive_example();
    let keys = mm.schema().key_indices();
    let conf = mm.schema().confidential_indices();
    assert_eq!(max_k(&mm, &keys), 3);
    assert_eq!(max_p_of_masked(&mm, &keys, &conf), 1);
    let fixed = table3_fixed();
    assert_eq!(max_p_of_masked(&fixed, &keys, &conf), 2);
    // "p is always less than or equal to k".
    assert!(max_p_of_masked(&fixed, &keys, &conf) <= max_k(&fixed, &keys));
}

#[test]
fn figure2_lattice_heights() {
    let gl = figure2_qi_space().lattice();
    assert_eq!(gl.height(), 3);
    assert_eq!(gl.node_count(), 6);
    assert_eq!(Node(vec![0, 0]).height(), 0);
    assert_eq!(Node(vec![1, 0]).height(), 1);
    assert_eq!(Node(vec![0, 1]).height(), 1);
    assert_eq!(Node(vec![1, 1]).height(), 2);
    assert_eq!(Node(vec![1, 2]).height(), 3);
}

#[test]
fn figure3_violation_annotations() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    let scan = exhaustive_scan(&im, &qi, &pk_request(1, 3, 0), &NoopObserver).unwrap();
    let find = |levels: Vec<u8>| {
        scan.annotations
            .iter()
            .find(|(n, _)| n.levels() == levels.as_slice())
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert_eq!(find(vec![0, 0]), 10);
    assert_eq!(find(vec![1, 0]), 7);
    assert_eq!(find(vec![0, 1]), 7);
    assert_eq!(find(vec![1, 1]), 2);
    assert_eq!(find(vec![0, 2]), 0);
    assert_eq!(find(vec![1, 2]), 0);
}

#[test]
fn table4_cells_exact() {
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    let cases: &[(usize, &[&[u8]])] = &[
        (0, &[&[0, 2]]),
        (1, &[&[0, 2]]),
        (2, &[&[0, 2], &[1, 1]]),
        (6, &[&[0, 2], &[1, 1]]),
        (7, &[&[0, 1], &[1, 0]]),
        (9, &[&[0, 1], &[1, 0]]),
        (10, &[&[0, 0]]),
    ];
    for &(ts, expected) in cases {
        let mut minimal = exhaustive_scan(&im, &qi, &pk_request(1, 3, ts), &NoopObserver)
            .unwrap()
            .minimal;
        minimal.sort();
        let mut expected: Vec<Node> = expected.iter().map(|l| Node(l.to_vec())).collect();
        expected.sort();
        assert_eq!(minimal, expected, "TS = {ts}");
    }
}

#[test]
fn tables_5_and_6_exact() {
    let im = example1_microdata();
    let conf = im.schema().confidential_indices();
    let stats = ConfidentialStats::compute(&im, &conf);
    assert_eq!(stats.n, 1000);
    assert_eq!(stats.cf, vec![700, 900, 950, 960, 1000]);
    assert_eq!(stats.max_p(), 5);
    assert_eq!(stats.max_groups(2), MaxGroups::Bounded(300));
    assert_eq!(stats.max_groups(3), MaxGroups::Bounded(100));
    assert_eq!(stats.max_groups(4), MaxGroups::Bounded(50));
    assert_eq!(stats.max_groups(5), MaxGroups::Bounded(25));
    assert_eq!(stats.max_groups(6), MaxGroups::Unsatisfiable);
}

#[test]
fn table7_lattice_dimensions() {
    let qi = adult_qi_space();
    let gl = qi.lattice();
    assert_eq!(gl.node_count(), 96);
    assert_eq!(gl.height(), 9);
    // Distinct-value counts of Table 7: MaritalStatus 7, Race 5, Sex 2.
    use psens::datasets::hierarchies::{MARITAL_STATUS, RACE, SEX};
    assert_eq!(MARITAL_STATUS.len(), 7);
    assert_eq!(RACE.len(), 5);
    assert_eq!(SEX.len(), 2);
}

#[test]
fn table8_shape_holds() {
    // The experiment's conclusions, not its absolute numbers:
    // (a) k-anonymous maskings exhibit attribute disclosures;
    // (b) increasing k decreases them.
    let qi = adult_qi_space();
    let (s400, s4000) = psens::datasets::paper_samples();
    let mut by_k = Vec::new();
    for table in [&s400, &s4000] {
        let mut row = Vec::new();
        for k in [2u32, 3] {
            let outcome =
                pk_minimal_generalization(table, &qi, &pk_request(1, k, 0), &NoopObserver).unwrap();
            let masked = outcome.masked.unwrap();
            let keys = masked.schema().key_indices();
            let conf = masked.schema().confidential_indices();
            // The masking the search returns genuinely satisfies k.
            assert!(is_k_anonymous(&masked, &keys, k));
            row.push(attribute_disclosure_count(&masked, &keys, &conf));
        }
        by_k.push(row);
    }
    for row in &by_k {
        assert!(
            row[0] >= row[1],
            "disclosures must not grow with k: {by_k:?}"
        );
    }
    assert!(
        by_k.iter().flatten().any(|&d| d > 0),
        "k-anonymity alone must exhibit attribute disclosure somewhere"
    );
}

#[test]
fn p_sensitive_search_eliminates_all_disclosures() {
    let qi = adult_qi_space();
    let (s400, _) = psens::datasets::paper_samples();
    let outcome =
        pk_minimal_generalization(&s400, &qi, &pk_request(2, 2, 0), &NoopObserver).unwrap();
    let masked = outcome.masked.expect("p = 2 is achievable");
    let keys = masked.schema().key_indices();
    let conf = masked.schema().confidential_indices();
    assert_eq!(attribute_disclosure_count(&masked, &keys, &conf), 0);
    assert!(is_p_sensitive_k_anonymous(&masked, &keys, &conf, 2, 2));
}
