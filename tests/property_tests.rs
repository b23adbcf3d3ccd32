//! Property-based tests (proptest) of the core invariants, on randomly
//! generated microdata.

use proptest::prelude::*;
use psens::core::conditions::ConfidentialStats;
use psens::core::theorems::{theorem1_holds, theorems_hold};
use psens::core::{
    check_improved, is_p_sensitive_k_anonymous, max_k, max_p_of_masked, CheckStage, Invalidation,
    NodeCheck, VerdictStore,
};
use psens::hierarchy::CatHierarchy;
use psens::microdata::csv;
use psens::prelude::*;

/// Schema used by the random tables: two categorical keys with the small
/// domains `x0..x3` / `y0..y2`, one categorical and one integer confidential
/// attribute.
fn test_schema() -> Schema {
    Schema::new(vec![
        Attribute::cat_key("X"),
        Attribute::cat_key("Y"),
        Attribute::cat_confidential("S"),
        Attribute::int_confidential("T"),
    ])
    .unwrap()
}

/// One random row: indices into the small domains.
fn arb_row() -> impl Strategy<Value = (u8, u8, u8, i64)> {
    (0u8..4, 0u8..3, 0u8..4, 0i64..3)
}

fn build_table(rows: &[(u8, u8, u8, i64)]) -> Table {
    let mut builder = TableBuilder::new(test_schema());
    for &(x, y, s, t) in rows {
        builder
            .push_row(vec![
                Value::Text(format!("x{x}")),
                Value::Text(format!("y{y}")),
                Value::Text(format!("s{s}")),
                Value::Int(t),
            ])
            .unwrap();
    }
    builder.finish()
}

/// Hierarchies over the small domains: pairs, then everything.
fn test_qi_space() -> QiSpace {
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
        ("X".into(), psens::hierarchy::Hierarchy::Cat(x)),
        ("Y".into(), psens::hierarchy::Hierarchy::Cat(y)),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_sizes_partition_the_table(rows in prop::collection::vec(arb_row(), 1..60)) {
        let t = build_table(&rows);
        let gb = GroupBy::compute(&t, &[0, 1]);
        let total: u32 = gb.sizes().iter().sum();
        prop_assert_eq!(total as usize, t.n_rows());
        for &attr in &[2usize, 3] {
            let distinct = gb.distinct_per_group(t.column(attr));
            for (g, &d) in distinct.iter().enumerate() {
                prop_assert!(d >= 1, "nonempty group has at least one value");
                prop_assert!(d <= gb.sizes()[g], "distinct cannot exceed size");
            }
        }
    }

    #[test]
    fn frequency_sets_are_consistent(rows in prop::collection::vec(arb_row(), 1..60)) {
        let t = build_table(&rows);
        let fs = FrequencySet::of(&t, &[2]);
        let sum: usize = fs.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(sum, t.n_rows());
        let desc = fs.descending_counts();
        prop_assert!(desc.windows(2).all(|w| w[0] >= w[1]));
        let cum = fs.cumulative_descending();
        prop_assert_eq!(*cum.last().unwrap(), t.n_rows());
        prop_assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn suppression_always_reaches_k(
        rows in prop::collection::vec(arb_row(), 1..60),
        k in 1u32..6,
    ) {
        let t = build_table(&rows);
        let before = GroupBy::compute(&t, &[0, 1]);
        let expected_removed = before.rows_in_small_groups(k);
        let result = psens::core::suppress_to_k(&t, &[0, 1], k);
        prop_assert_eq!(result.removed, expected_removed);
        prop_assert!(is_k_anonymous(&result.table, &[0, 1], k));
        prop_assert_eq!(result.table.n_rows(), t.n_rows() - expected_removed);
    }

    #[test]
    fn max_p_never_exceeds_max_k(rows in prop::collection::vec(arb_row(), 1..60)) {
        let t = build_table(&rows);
        let p = max_p_of_masked(&t, &[0, 1], &[2, 3]);
        let k = max_k(&t, &[0, 1]);
        prop_assert!(p <= k, "p = {} must be <= k = {}", p, k);
    }

    #[test]
    fn theorems_hold_under_any_suppression(
        rows in prop::collection::vec(arb_row(), 1..40),
        mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let im = build_table(&rows);
        let mm = im.filter(|row| !mask[row]);
        let im_stats = ConfidentialStats::compute(&im, &[2, 3]);
        let mm_stats = ConfidentialStats::compute(&mm, &[2, 3]);
        prop_assert!(theorem1_holds(&im_stats, &mm_stats));
        prop_assert!(theorems_hold(&im_stats, &mm_stats));
    }

    #[test]
    fn improved_checker_equals_basic_algorithm(
        rows in prop::collection::vec(arb_row(), 1..50),
        p in 1u32..5,
        k in 1u32..5,
    ) {
        let t = build_table(&rows);
        let stats = ConfidentialStats::compute(&t, &[2, 3]);
        let basic = is_p_sensitive_k_anonymous(&t, &[0, 1], &[2, 3], p, k);
        let improved = check_improved(&t, &[0, 1], &[2, 3], p, k, &stats);
        prop_assert_eq!(basic, improved.satisfied);
    }

    #[test]
    fn generalization_is_monotone(
        rows in prop::collection::vec(arb_row(), 1..50),
        k in 1u32..5,
    ) {
        // If node X satisfies k-anonymity (no suppression), every dominating
        // node Y does too, and the violation count never increases upward.
        let t = build_table(&rows);
        let qi = test_qi_space();
        let lattice = qi.lattice();
        let nodes = lattice.all_nodes();
        let results: Vec<(Node, usize)> = nodes
            .iter()
            .map(|node| {
                let masked = qi.apply(&t, node).unwrap();
                let keys = masked.schema().key_indices();
                let report = psens::core::check_k_anonymity(&masked, &keys, k);
                (node.clone(), report.violating_tuples)
            })
            .collect();
        for (x, vx) in &results {
            for (y, vy) in &results {
                if y.dominates(x) {
                    prop_assert!(
                        vy <= vx,
                        "violations must not increase upward: {} has {}, {} has {}",
                        x, vx, y, vy
                    );
                }
            }
        }
    }

    #[test]
    fn csv_roundtrip_is_lossless(
        rows in prop::collection::vec(
            (
                prop::option::of("[a-zA-Z0-9 ,\"\n\\-|]{0,12}"),
                prop::option::of(-1000i64..1000),
            ),
            0..30,
        )
    ) {
        let schema = Schema::new(vec![
            Attribute::cat_key("Text"),
            Attribute::int_confidential("Number"),
        ]).unwrap();
        let mut builder = TableBuilder::new(schema.clone());
        for (text, number) in &rows {
            // The reader trims fields and treats empty / "?" as missing, so
            // normalize the expectation the same way.
            let text_value = match text {
                Some(s) if !s.trim().is_empty() && s.trim() != "?" => {
                    Value::Text(s.trim().to_owned())
                }
                _ => Value::Missing,
            };
            builder.push_row(vec![text_value, Value::from(*number)]).unwrap();
        }
        let table = builder.finish();
        let written = csv::to_csv_string(&table, true);
        let back = csv::read_table_str(&written, schema, true).unwrap();
        prop_assert_eq!(back, table);
    }

    #[test]
    fn lattice_enumeration_is_sound(dims in prop::collection::vec(0u8..4, 1..5)) {
        let lattice = Lattice::new(dims.clone());
        let all = lattice.all_nodes();
        let expected: usize = dims.iter().map(|&d| d as usize + 1).product();
        prop_assert_eq!(all.len(), expected);
        let unique: std::collections::HashSet<_> = all.iter().cloned().collect();
        prop_assert_eq!(unique.len(), expected);
        for node in &all {
            prop_assert!(lattice.contains(node));
            prop_assert!(lattice.top().dominates(node));
            prop_assert!(node.dominates(&lattice.bottom()));
        }
        // Strata partition the lattice by height.
        let by_height: usize = (0..=lattice.height())
            .map(|h| lattice.nodes_at_height(h).len())
            .sum();
        prop_assert_eq!(by_height, expected);
    }

    #[test]
    fn minimal_elements_are_an_antichain(
        dims in prop::collection::vec(1u8..4, 2..4),
        picks in prop::collection::vec(any::<u8>(), 1..20),
    ) {
        let lattice = Lattice::new(dims);
        let all = lattice.all_nodes();
        let subset: Vec<Node> = picks
            .iter()
            .map(|&i| all[i as usize % all.len()].clone())
            .collect();
        let minimal = lattice.minimal_elements(&subset);
        prop_assert!(!minimal.is_empty());
        for a in &minimal {
            prop_assert!(subset.contains(a));
            for b in &minimal {
                prop_assert!(!a.strictly_dominates(b), "{} dominates {}", a, b);
            }
        }
        // Every subset member is dominated by... dominates some minimal one.
        for node in &subset {
            prop_assert!(
                minimal.iter().any(|m| node.dominates(m)),
                "{} must dominate a minimal element",
                node
            );
        }
    }

    #[test]
    fn mondrian_outputs_are_valid_partitions(
        rows in prop::collection::vec(arb_row(), 1..80),
        k in 1u32..5,
        p in 1u32..3,
    ) {
        let t = build_table(&rows);
        let unlimited = SearchBudget::unlimited();
        let outcome =
            mondrian_anonymize(&t, MondrianConfig { k, p }, &unlimited, &NoopObserver).unwrap();
        // Disjoint cover.
        let mut seen = vec![false; t.n_rows()];
        for partition in &outcome.partitions {
            for &row in partition {
                prop_assert!(!seen[row]);
                seen[row] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // If any split happened, every partition satisfies the constraint.
        if outcome.partitions.len() > 1 {
            for partition in &outcome.partitions {
                prop_assert!(partition.len() as u32 >= k);
            }
            let keys = outcome.masked.schema().key_indices();
            let conf = outcome.masked.schema().confidential_indices();
            prop_assert!(is_p_sensitive_k_anonymous(&outcome.masked, &keys, &conf, p, k));
        }
    }

    #[test]
    fn verdict_store_approx_bytes_never_drifts(
        ops in prop::collection::vec(
            (0u8..3, 0u8..3, 0u8..7, 0usize..8, 1usize..6, 1u32..5, any::<bool>()),
            1..40,
        ),
        stat_rows in prop::collection::vec(arb_row(), 1..20),
        ts in 0usize..4,
        monotone in any::<bool>(),
    ) {
        // `approx_bytes` backs the server's memory-pressure accounting, so
        // it must be a pure function of the store's *contents*: after any
        // sequence of records (with closure) and invalidations, a store
        // rebuilt raw from the snapshot must report the identical footprint
        // — any drift means the estimate depends on operation history and
        // the eviction budget silently rots.
        let lattice = Lattice::new(vec![2, 2]);
        let stats = ConfidentialStats::compute(&build_table(&stat_rows), &[2, 3]);
        let store = VerdictStore::for_model(&lattice, ts, monotone);
        for &(xl, yl, kind, vt, g, p, pass) in &ops {
            match kind {
                0..=3 => {
                    let (stage, n_groups) = match kind {
                        0 => (CheckStage::Condition1, None),
                        1 => (CheckStage::Condition2, Some(g)),
                        2 => (CheckStage::KAnonymity, Some(g)),
                        _ => (CheckStage::Passed, Some(g)),
                    };
                    store.record(&NodeCheck {
                        node: Node(vec![xl, yl]),
                        violating_tuples: vt,
                        suppressed: vt.min(ts),
                        satisfied: pass && matches!(stage, CheckStage::Passed),
                        stage,
                        n_groups,
                        detail: None,
                    });
                }
                4 => {
                    store.invalidate(Invalidation::KeepAll);
                }
                5 => {
                    store.invalidate(Invalidation::DropAll);
                }
                _ => {
                    store.invalidate(Invalidation::Conditions { stats: &stats, p });
                }
            }
            let rebuilt = VerdictStore::for_model(&lattice, ts, monotone);
            for (node, verdict) in store.snapshot_entries() {
                rebuilt.insert_raw(node, verdict);
            }
            prop_assert_eq!(store.len(), rebuilt.len(), "entry count drifted");
            prop_assert_eq!(
                store.approx_bytes(),
                rebuilt.approx_bytes(),
                "approx_bytes drifted from a rebuilt store"
            );
        }
    }

    #[test]
    fn apply_preserves_confidential_and_row_count(
        rows in prop::collection::vec(arb_row(), 1..50),
        xl in 0u8..3,
        yl in 0u8..2,
    ) {
        let t = build_table(&rows);
        let qi = test_qi_space();
        let masked = qi.apply(&t, &Node(vec![xl, yl])).unwrap();
        prop_assert_eq!(masked.n_rows(), t.n_rows());
        // Confidential columns are untouched by generalization.
        prop_assert_eq!(masked.column(2), t.column(2));
        prop_assert_eq!(masked.column(3), t.column(3));
    }
}
