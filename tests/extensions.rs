//! Integration and property tests for the extension features: extended
//! p-sensitivity, the level-wise search, the parallel scan, and the
//! diversity measures.

use proptest::prelude::*;
use psens::core::extended::{check_extended, ConfidentialSpec};
use psens::hierarchy::CatHierarchy;
use psens::metrics::diversity_report;
use psens::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::cat_key("X"),
        Attribute::cat_key("Y"),
        Attribute::cat_confidential("S"),
    ])
    .unwrap()
}

fn arb_row() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..4, 0u8..3, 0u8..4)
}

fn build_table(rows: &[(u8, u8, u8)]) -> Table {
    let mut builder = TableBuilder::new(schema());
    for &(x, y, s) in rows {
        builder
            .push_row(vec![
                Value::Text(format!("x{x}")),
                Value::Text(format!("y{y}")),
                Value::Text(format!("s{s}")),
            ])
            .unwrap();
    }
    builder.finish()
}

/// Confidential hierarchy: s0,s1 -> even; s2,s3 -> odd; top *.
fn s_hierarchy() -> Hierarchy {
    Hierarchy::Cat(
        CatHierarchy::identity(["s0", "s1", "s2", "s3"])
            .unwrap()
            .push_level([("s0", "even"), ("s1", "even"), ("s2", "odd"), ("s3", "odd")])
            .unwrap()
            .push_top("*")
            .unwrap(),
    )
}

fn qi_space() -> QiSpace {
    let x = CatHierarchy::identity(["x0", "x1", "x2", "x3"])
        .unwrap()
        .push_level([("x0", "xa"), ("x1", "xa"), ("x2", "xb"), ("x3", "xb")])
        .unwrap()
        .push_top("*")
        .unwrap();
    let y = CatHierarchy::identity(["y0", "y1", "y2"])
        .unwrap()
        .push_top("*")
        .unwrap();
    QiSpace::new(vec![
        ("X".into(), Hierarchy::Cat(x)),
        ("Y".into(), Hierarchy::Cat(y)),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn extended_is_at_most_plain_sensitivity(
        rows in prop::collection::vec(arb_row(), 1..50),
        p in 1u32..4,
        k in 1u32..4,
    ) {
        // Categories coarsen values, so extended p-sensitivity (level 1)
        // implies plain p-sensitivity (level 0) — never the reverse.
        let t = build_table(&rows);
        let h = s_hierarchy();
        let keys = [0usize, 1];
        let level1 = [ConfidentialSpec { attribute: 2, hierarchy: &h, level: 1 }];
        let extended = check_extended(&t, &keys, &level1, p, k).unwrap().satisfied();
        let plain = is_p_sensitive_k_anonymous(&t, &keys, &[2], p, k);
        prop_assert!(!extended || plain, "extended must imply plain");
        // And level 0 must coincide with plain exactly.
        let level0 = [ConfidentialSpec { attribute: 2, hierarchy: &h, level: 0 }];
        let at0 = check_extended(&t, &keys, &level0, p, k).unwrap().satisfied();
        prop_assert_eq!(at0, plain);
    }

    #[test]
    fn levelwise_and_parallel_agree(
        rows in prop::collection::vec(arb_row(), 1..40),
        p in 1u32..3,
        k in 1u32..4,
        ts in 0usize..5,
    ) {
        let t = build_table(&rows);
        let qi = qi_space();
        let req = pk_request(p, k, ts);
        let mut exhaustive = exhaustive_scan(&t, &qi, &req, &NoopObserver).unwrap().minimal;
        let mut levelwise = levelwise_minimal(&t, &qi, &req, &NoopObserver).unwrap().minimal;
        let three_threads = SearchRequest {
            tuning: Tuning { threads: 3, ..Tuning::default() },
            ..req
        };
        let parallel = exhaustive_scan(&t, &qi, &three_threads, &NoopObserver).unwrap();
        let mut par_minimal = parallel.minimal;
        exhaustive.sort();
        levelwise.sort();
        par_minimal.sort();
        prop_assert_eq!(&exhaustive, &levelwise);
        prop_assert_eq!(&exhaustive, &par_minimal);
    }

    #[test]
    fn diversity_measures_are_ordered(rows in prop::collection::vec(arb_row(), 1..50)) {
        let t = build_table(&rows);
        let report = diversity_report(&t, &[0, 1], 2).unwrap();
        // Entropy l never exceeds distinct l (uniform maximizes entropy).
        prop_assert!(
            report.entropy_l <= f64::from(report.distinct_l) + 1e-9,
            "entropy {} vs distinct {}",
            report.entropy_l,
            report.distinct_l
        );
        prop_assert!(report.entropy_l >= 1.0 - 1e-9);
        // Confidence is at least the uniform floor of the worst group.
        prop_assert!(report.max_confidence >= 1.0 / f64::from(report.distinct_l) - 1e-9);
        prop_assert!(report.max_confidence <= 1.0 + 1e-9);
        // distinct_l is exactly max_p.
        prop_assert_eq!(report.distinct_l, max_p_of_masked(&t, &[0, 1], &[2]));
    }
}

/// A p-sensitive k-anonymity request with the default knobs.
fn pk_request(p: u32, k: u32, ts: usize) -> SearchRequest<'static> {
    SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
}

#[test]
fn extended_check_composes_with_search() {
    // Search with plain p-sensitivity, then audit the result with the
    // extended model: the audit may fail, demonstrating the gap.
    let schema = Schema::new(vec![
        Attribute::cat_key("X"),
        Attribute::cat_confidential("S"),
    ])
    .unwrap();
    let t = table_from_str_rows(
        schema,
        &[
            &["x0", "s0"],
            &["x0", "s1"], // group {s0, s1}: 2 values, 1 category
            &["x1", "s0"],
            &["x1", "s2"], // group {s0, s2}: 2 values, 2 categories
        ],
    )
    .unwrap();
    assert!(is_p_sensitive_k_anonymous(&t, &[0], &[1], 2, 2));
    let h = s_hierarchy();
    let spec = [ConfidentialSpec {
        attribute: 1,
        hierarchy: &h,
        level: 1,
    }];
    let report = check_extended(&t, &[0], &spec, 2, 2).unwrap();
    assert!(!report.satisfied());
    assert_eq!(report.violations.len(), 1);
}
