//! Per-model goldens on the successor papers' worked examples.
//!
//! The l-diversity paper's inpatient tables and the t-closeness paper's
//! salary table come with numbers the papers state or that follow from
//! their frequencies by closed form. Each golden is pinned twice: once
//! through the reporting metrics (`diversity_report`, `closeness_report`)
//! and once through the enforcing `psens_core` models, so the two stacks
//! can never drift apart silently.

use psens_core::{check_table_model, ModelDetail, ModelSpec};
use psens_datasets::related;
use psens_metrics::{closeness_report, diversity_report};

/// l-diversity paper Table 2: the 4-anonymous release with a homogeneous
/// Cancer group. Distinct l collapses to 1 and the intruder's best guess
/// is certain — the homogeneity attack in numbers.
#[test]
fn ldiv_table2_exhibits_the_homogeneity_attack() {
    let t = related::ldiv_table2_inpatient_4anonymous();
    let keys = t.schema().key_indices();
    let report = diversity_report(&t, &keys, 3).unwrap();
    assert_eq!(report.distinct_l, 1);
    assert!((report.max_confidence - 1.0).abs() < 1e-12);
    // The enforcing model agrees: distinct 2-diversity fails even though
    // 4-anonymity holds.
    let conf = t.schema().confidential_indices();
    let model = check_table_model(&t, &keys, &conf, &ModelSpec::DistinctL { l: 2 }, 4);
    assert!(model.k_anonymous);
    assert_eq!(model.violating_pairs, 1, "exactly the Cancer group");
    assert_eq!(model.detail, Some(ModelDetail::MinDistinct(1)));
}

/// l-diversity paper Table 4: every group carries three conditions with
/// frequencies (2, 1, 1), so the release is distinct 3-diverse but only
/// entropy 2√2-diverse (H = 1.5·ln 2 per group) — the paper's own gap
/// between the two variants.
#[test]
fn ldiv_table4_goldens_split_distinct_from_entropy() {
    let t = related::ldiv_table4_inpatient_3diverse();
    let keys = t.schema().key_indices();
    let conf = t.schema().confidential_indices();
    let report = diversity_report(&t, &keys, 3).unwrap();
    assert_eq!(report.distinct_l, 3);
    let two_sqrt_two = 2.0 * std::f64::consts::SQRT_2;
    assert!(
        (report.entropy_l - two_sqrt_two).abs() < 1e-9,
        "entropy_l = {}",
        report.entropy_l
    );
    assert!((report.max_confidence - 0.5).abs() < 1e-12);
    // Enforcement: distinct 3-diversity holds, entropy 3-diversity does
    // not (2√2 < 3), entropy 2-diversity does.
    assert!(check_table_model(&t, &keys, &conf, &ModelSpec::DistinctL { l: 3 }, 4).satisfied());
    let entropy3 = check_table_model(&t, &keys, &conf, &ModelSpec::EntropyL { l: 3 }, 4);
    assert_eq!(entropy3.violating_pairs, 3, "all three groups miss ln 3");
    let entropy2 = check_table_model(&t, &keys, &conf, &ModelSpec::EntropyL { l: 2 }, 4);
    assert!(entropy2.satisfied());
    // H = 1.5·ln 2 = 1.039720… nats, in micro-nats on the wire.
    assert_eq!(
        entropy2.detail,
        Some(ModelDetail::MinEntropyMicroNats(1_039_721))
    );
}

/// t-closeness paper Table 3: 3-diverse, yet the first group holds the
/// three lowest salaries. Under the equal-distance ground metric each
/// group's salary EMD is 3·|1/3 − 1/9|/2 + 6·(1/9)/2 = 2/3, and each
/// disease EMD is 4/9 — diversity passes while closeness fails, the
/// paper's motivating skew.
#[test]
fn tclose_table3_goldens_split_diversity_from_closeness() {
    let t = related::tclose_table3_salary_3diverse();
    let keys = t.schema().key_indices();
    let conf = t.schema().confidential_indices();
    // Distinct 3-diversity holds on both confidential attributes.
    assert!(check_table_model(&t, &keys, &conf, &ModelSpec::DistinctL { l: 3 }, 3).satisfied());
    // Salary (attribute 2): nine distinct values, three per group.
    let salary = closeness_report(&t, &keys, 2).unwrap();
    assert!((salary.max_emd - 2.0 / 3.0).abs() < 1e-12);
    assert!((salary.mean_emd - 2.0 / 3.0).abs() < 1e-12);
    // Disease (attribute 3): six distinct values with multiplicities
    // (1, 2, 2, 1, 2, 1).
    let disease = closeness_report(&t, &keys, 3).unwrap();
    assert!((disease.max_emd - 4.0 / 9.0).abs() < 1e-12);
    // Enforcement across both attributes: the salary distance 2/3 is the
    // table's worst, so t = 0.67 admits the release and t = 0.66 rejects
    // it.
    let admit = check_table_model(
        &t,
        &keys,
        &conf,
        &ModelSpec::TCloseness { t_ppm: 670_000 },
        3,
    );
    assert!(admit.satisfied());
    assert_eq!(admit.detail, Some(ModelDetail::MaxEmdPpm(666_667)));
    let reject = check_table_model(
        &t,
        &keys,
        &conf,
        &ModelSpec::TCloseness { t_ppm: 660_000 },
        3,
    );
    assert_eq!(reject.violating_pairs, 3, "every group's salary is too far");
}
